#!/usr/bin/env bash
# Mutant runner: proves the test suite catches each seeded bug.
#
#   mutants/run.sh               run every mutants/*.patch
#   mutants/run.sh NAME...       run mutants/NAME.patch only
#   mutants/run.sh --selftest    run the runner's own broken fixtures
#                                (mutants/selftest/*.patch); must fail
#
# Each patch is a unified diff against the current tree. Its preamble
# (the text before the first `diff --git`, which `git apply` ignores)
# holds one `run:` line, the command that must FAIL under the mutant,
# and any number of `grep:` lines, Perl regexes that must each match the
# command's output (matched with `grep -Pz`, so `\n` spans lines).
#
# The runner snapshots the working tree (tracked and untracked, minus
# ignored files) into a throwaway copy at target/mutants/tree, applies
# the patch there and runs the command in the copy. The working tree is
# never edited. All copies share one CARGO_TARGET_DIR, so dependencies
# build once. A mutant is killed when the patch applies, the command
# fails and every grep matches; anything else fails the run.
#
# Needs bash, git, cargo and GNU grep (for -P).

set -uo pipefail

root=$(git rev-parse --show-toplevel) || exit 2
cd "$root" || exit 2
state="$root/target/mutants"
copy="$state/tree"
logs="$state/logs"
export CARGO_TARGET_DIR="$state/cargo"

# The copy is a work tree of a private bare repository, so restoring it
# rewrites only the files the last mutant touched (fresh mtimes, so cargo
# rebuilds exactly what changed).
gitm() { git --git-dir="$state/git" "$@"; }

snapshot() {
    mkdir -p "$copy" "$logs"
    [ -d "$state/git" ] || git init -q --bare "$state/git" || exit 2
    GIT_INDEX_FILE="$state/snapshot.index" gitm --work-tree="$root" add -A . || exit 2
    GIT_INDEX_FILE="$state/snapshot.index" gitm write-tree || exit 2
}

restore() {
    GIT_INDEX_FILE="$state/copy.index" gitm --work-tree="$copy" read-tree -u --reset "$1" &&
        GIT_INDEX_FILE="$state/copy.index" gitm --work-tree="$copy" clean -fdxq
}

# Prints the preamble's values for one key (`run` or `grep`).
preamble() {
    local key=$1 patch=$2 line
    while IFS= read -r line; do
        case $line in
            "diff --git "*) return ;;
            "$key: "*) printf '%s\n' "${line#"$key: "}" ;;
        esac
    done <"$patch"
}

# Runs one mutant; prints its verdict and returns non-zero unless killed.
run_mutant() {
    local patch=$1 tree=$2 name cmd log pattern missed=0
    name=$(basename "$patch" .patch)
    log="$logs/$name.log"
    cmd=$(preamble run "$patch")
    if [ -z "$cmd" ]; then
        echo "mutants: $name: no run: line"
        return 1
    fi
    restore "$tree" || { echo "mutants: $name: cannot restore the copy"; return 1; }
    if ! (cd "$copy" && gitm --work-tree=. apply "$patch") >"$log" 2>&1; then
        echo "mutants: $name: patch does not apply (see $log)"
        return 1
    fi
    echo "mutants: $name: $cmd"
    if (cd "$copy" && bash -c "$cmd") >>"$log" 2>&1; then
        echo "mutants: $name: SURVIVED (command passed; see $log)"
        return 1
    fi
    while IFS= read -r pattern; do
        if ! grep -Pzq -- "$pattern" "$log"; then
            echo "mutants: $name: grep missed: $pattern (see $log)"
            missed=1
        fi
    done < <(preamble grep "$patch")
    if [ "$missed" -ne 0 ]; then
        return 1
    fi
    echo "mutants: $name: killed"
}

patches=()
case ${1:-} in
    --selftest) patches=("$root"/mutants/selftest/*.patch) ;;
    "") patches=("$root"/mutants/*.patch) ;;
    *) for name in "$@"; do patches+=("$root/mutants/$name.patch"); done ;;
esac

tree=$(snapshot) || exit 2
failed=()
for patch in "${patches[@]}"; do
    if [ ! -f "$patch" ]; then
        echo "mutants: no such mutant: $patch"
        failed+=("$(basename "$patch" .patch)")
    elif ! run_mutant "$patch" "$tree"; then
        failed+=("$(basename "$patch" .patch)")
    fi
done
restore "$tree" >/dev/null 2>&1

if [ ${#failed[@]} -ne 0 ]; then
    echo "mutants: FAILED: ${failed[*]}"
    exit 1
fi
echo "mutants: all ${#patches[@]} killed"
