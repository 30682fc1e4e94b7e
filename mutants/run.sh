#!/usr/bin/env bash
# Runs the committed mutants of mutants/mutants.txt against the suite.
#
#   mutants/run.sh            every mutant in the list
#   mutants/run.sh NAME...    only the named ones
#
# Each mutant is applied alone to a detached `git worktree` of HEAD under
# target/mutants/, so only committed code is measured and the working
# tree is never touched. Tier-1 (`cargo test -q`, the root suites) runs
# first; if it passes, the workspace suite (`cargo test -q --workspace`)
# runs. Both skip `every_listed_mutant_applies_to_the_tree`, which every
# applied mutant fails by design. A mutant is killed by the first suite
# that fails, and the line names the first failing test. Builds share
# target/mutants/target, so each mutant rebuilds only what it touched:
# the 14 mutants took 10 minutes on a 2-core host once that directory
# was warm.
#
# Exit status: 0 when every mutant ends as its entry expects (killed, or
# a listed survivor survives), 1 otherwise, 2 when the list is malformed
# or an entry's text is not found exactly once.
set -euo pipefail

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
list="$root/mutants/mutants.txt"
work="$root/target/mutants"
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

names=() files=() finds=() replaces=() killers=()
name="" file="" killer="" find="" replace="" part=""
flush() {
    [[ -z $name ]] && return
    if [[ -z $file || -z $find || -z $killer ]]; then
        echo "mutants.txt: entry $name lacks a file, a killer or its text" >&2
        exit 2
    fi
    names+=("$name") files+=("$file") finds+=("$find") replaces+=("$replace")
    killers+=("$killer")
}
while IFS= read -r line || [[ -n $line ]]; do
    case "$part:$line" in
        *:"=== "*)
            flush
            name="${line#=== }" file="" killer="" find="" replace="" part="head" ;;
        head:"file: "*) file="${line#file: }" ;;
        head:"killer: "*) killer="${line#killer: }" ;;
        head:"--- find") part="find" ;;
        find:"--- replace") part="replace" ;;
        find:*) find+="${find:+$'\n'}$line" ;;
        replace:*) [[ -n $line || -n $replace ]] && replace+="${replace:+$'\n'}$line" ;;
        *) ;;
    esac
done < "$list"
flush
# An entry's replacement ends at the blank line before the next entry.
for i in "${!replaces[@]}"; do
    r="${replaces[$i]}"
    while [[ $r == *$'\n' ]]; do r="${r%$'\n'}"; done
    replaces[i]="$r"
done

if [[ ! -e $tree/.git ]]; then
    mkdir -p "$work"
    git -C "$root" worktree add --detach --force "$tree" HEAD >/dev/null
fi
git -C "$tree" checkout -q --detach "$(git -C "$root" rev-parse HEAD)"

# Prints the first failing test of a suite's log, with the target to rerun.
first_failure() {
    local log="$1" test target
    test="$(grep -m1 -oE '^---- .* stdout ----$' "$log" | sed -E 's/^---- (.*) stdout ----$/\1/')" || true
    target="$(grep -m1 -oE 'to rerun pass `[^`]*`' "$log" | sed -E 's/.*`(.*)`/\1/')" || true
    if grep -qE '^error(\[E[0-9]+\])?:' "$log" && [[ -z $test ]]; then
        echo "build error"
    else
        echo "${test:-?} (${target:-?})"
    fi
}

# tests/docs.rs holds the list to the tree; a mutant changes the tree.
own_check=every_listed_mutant_applies_to_the_tree
killed=0 survived=0 unexpected=0
for i in "${!names[@]}"; do
    name="${names[$i]}"
    if (($# > 0)) && [[ " $* " != *" $name "* ]]; then
        continue
    fi
    git -C "$tree" checkout -q -- .
    path="$tree/${files[$i]}"
    content="$(<"$path")"
    find="${finds[$i]}"
    rest="${content#*"$find"}"
    if [[ $rest == "$content" || $rest == *"$find"* ]]; then
        echo "$name: its text is not found exactly once in ${files[$i]}" >&2
        git -C "$tree" checkout -q -- .
        exit 2
    fi
    printf '%s\n' "${content/"$find"/"${replaces[$i]}"}" > "$path"

    log="$work/$name.log"
    if ! (cd "$tree" && cargo test -q -- --skip "$own_check") > "$log" 2>&1; then
        outcome="killed by tier-1: $(first_failure "$log")"
    elif ! (cd "$tree" && cargo test -q --workspace -- --skip "$own_check") > "$log" 2>&1; then
        outcome="killed by the workspace: $(first_failure "$log")"
    else
        outcome="survived"
    fi
    if [[ $outcome == survived ]]; then
        survived=$((survived + 1))
        [[ ${killers[$i]} == survives:* ]] || unexpected=$((unexpected + 1))
    else
        killed=$((killed + 1))
        [[ ${killers[$i]} != survives:* ]] || unexpected=$((unexpected + 1))
    fi
    echo "$name: $outcome; expected: ${killers[$i]}"
done
git -C "$tree" checkout -q -- .
echo "$killed killed, $survived survived, $unexpected not as expected"
((unexpected == 0))
