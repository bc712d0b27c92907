"""Stateful property tests (hypothesis rule-based state machines).

These drive long random operation sequences against the managed group
directory, checking invariants after every step.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.group_management import ManagedGroupDirectory, MembershipError


class GroupMembershipMachine(RuleBasedStateMachine):
    """Epoch rekeying must preserve forward/backward secrecy invariants."""

    GROUPS = 3
    NODES = list(range(8))

    def __init__(self):
        super().__init__()
        self.directory = ManagedGroupDirectory(b"machine-master", self.GROUPS)
        self.member_of: dict[int, int] = {}

    @rule(
        node=st.sampled_from(NODES),
        group=st.integers(min_value=0, max_value=GROUPS - 1),
    )
    def join(self, node, group):
        if node in self.member_of:
            try:
                self.directory.join(node, group)
                raise AssertionError("double join must fail")
            except MembershipError:
                return
        self.directory.join(node, group)
        self.member_of[node] = group

    @rule(node=st.sampled_from(NODES))
    def leave(self, node):
        group = self.member_of.get(node)
        if group is None:
            try:
                self.directory.leave(node, 0)
                raise AssertionError("leaving when absent must fail")
            except MembershipError:
                return
        self.directory.leave(node, group)
        del self.member_of[node]

    @invariant()
    def membership_matches_model(self):
        for group in range(self.GROUPS):
            expected = sorted(
                node for node, g in self.member_of.items() if g == group
            )
            assert list(self.directory.members(group)) == expected

    @invariant()
    def current_members_hold_current_epoch(self):
        for node, group in self.member_of.items():
            epoch = self.directory.epoch(group)
            assert self.directory.node_can_peel(node, group, epoch)

    @invariant()
    def outsiders_lack_current_epoch(self):
        for group in range(self.GROUPS):
            epoch = self.directory.epoch(group)
            if epoch == 0:
                continue
            members = set(self.directory.members(group))
            for node in self.NODES:
                if node not in members:
                    assert not self.directory.node_can_peel(node, group, epoch)

    @invariant()
    def epochs_never_regress(self):
        history = self.directory.history()
        per_group: dict[int, int] = {}
        for entry in history:
            last = per_group.get(entry.group_id, 0)
            assert entry.epoch == last + 1
            per_group[entry.group_id] = entry.epoch


TestGroupMembershipMachine = GroupMembershipMachine.TestCase
