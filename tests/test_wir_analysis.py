"""Edge cases of the WIR dataflow machinery (repro.compiler.wir.analysis):
single-block functions, unreachable blocks, and loops with multiple
back-edges — the shapes the IR verifier leans on."""

from repro.compiler.wir.analysis import (
    compute_dominators,
    compute_liveness,
    dominates,
    find_natural_loops,
    loop_headers,
)
from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import (
    BranchInstr,
    ConstantInstr,
    JumpInstr,
    ReturnInstr,
    Value,
)


def boolean(value: Value) -> Value:
    return value


class TestSingleBlock:
    def build(self):
        function = FunctionModule("F")
        block = function.new_block("entry")
        result = Value("r")
        block.append(ConstantInstr(result, 1))
        block.terminator = ReturnInstr(result)
        return function, block

    def test_dominators(self):
        function, block = self.build()
        idom = compute_dominators(function)
        assert idom == {block.name: None}
        assert dominates(idom, block.name, block.name)  # reflexive

    def test_no_loops(self):
        function, _ = self.build()
        assert find_natural_loops(function) == []
        assert loop_headers(function) == set()

    def test_liveness_empty_at_boundaries(self):
        function, block = self.build()
        live_in, live_out = compute_liveness(function)
        assert live_in[block.name] == set()
        assert live_out[block.name] == set()


class TestUnreachableBlocks:
    def build(self):
        function = FunctionModule("F")
        entry = function.new_block("entry")
        orphan = function.new_block("orphan")
        result = Value("r")
        entry.append(ConstantInstr(result, 1))
        entry.terminator = ReturnInstr(result)
        ghost = Value("g")
        orphan.append(ConstantInstr(ghost, 2))
        orphan.terminator = ReturnInstr(ghost)
        return function, entry, orphan

    def test_dominators_cover_reachable_only(self):
        function, entry, orphan = self.build()
        idom = compute_dominators(function)
        assert entry.name in idom
        assert orphan.name not in idom

    def test_dominates_is_false_for_unknown_blocks(self):
        function, entry, orphan = self.build()
        idom = compute_dominators(function)
        assert not dominates(idom, entry.name, orphan.name)

    def test_orphan_back_edge_creates_no_loop(self):
        function, entry, orphan = self.build()
        orphan.terminator = JumpInstr(orphan.name)  # self-loop, unreachable
        assert loop_headers(function) == set()


class TestMultipleBackEdges:
    def build(self):
        """One header with TWO latches (a loop whose body splits and both
        arms jump back) — the shape that merges into one natural loop."""
        function = FunctionModule("F")
        entry = function.new_block("entry")
        header = function.new_block("header")
        left = function.new_block("left")
        right = function.new_block("right")
        exit_block = function.new_block("exit")

        condition = Value("c")
        entry.append(ConstantInstr(condition, True))
        entry.terminator = JumpInstr(header.name)
        stay = Value("stay")
        header.append(ConstantInstr(stay, True))
        header.terminator = BranchInstr(stay, left.name, exit_block.name)
        pick = Value("pick")
        left.append(ConstantInstr(pick, False))
        left.terminator = BranchInstr(pick, header.name, right.name)
        right.terminator = JumpInstr(header.name)  # second back-edge
        result = Value("r")
        exit_block.append(ConstantInstr(result, 0))
        exit_block.terminator = ReturnInstr(result)
        return function, header, left, right, exit_block

    def test_single_header_found(self):
        function, header, *_ = self.build()
        assert loop_headers(function) == {header.name}

    def test_both_latches_in_the_loop_body(self):
        function, header, left, right, _ = self.build()
        loops = find_natural_loops(function)
        bodies = set()
        for loop in loops:
            assert loop.header == header.name
            bodies |= set(loop.body)
        assert {header.name, left.name, right.name} <= bodies

    def test_header_dominates_loop_body(self):
        function, header, left, right, exit_block = self.build()
        idom = compute_dominators(function)
        for name in (left.name, right.name, exit_block.name):
            assert dominates(idom, header.name, name)
        assert not dominates(idom, left.name, header.name)


class TestLivenessAcrossBlocks:
    def test_value_live_through_intermediate_block(self):
        function = FunctionModule("F")
        entry = function.new_block("entry")
        middle = function.new_block("middle")
        last = function.new_block("last")
        carried = Value("v")
        entry.append(ConstantInstr(carried, 5))
        entry.terminator = JumpInstr(middle.name)
        middle.terminator = JumpInstr(last.name)  # does not touch `carried`
        last.terminator = ReturnInstr(carried)
        live_in, live_out = compute_liveness(function)
        assert carried in live_out[entry.name]
        assert carried in live_in[middle.name]
        assert carried in live_in[last.name]
        assert carried not in live_out[last.name]


class TestCfgFactsFollowTheCfgVersion:
    """``FunctionModule.cfg()`` serves one set of facts per CFG shape: the
    same object while nothing moved, a fresh one after each of the four
    ways the compiler changes an edge."""

    def diamond(self):
        function = FunctionModule("F")
        entry = function.new_block("entry")
        left = function.new_block("left")
        right = function.new_block("right")
        condition = Value("c")
        entry.append(ConstantInstr(condition, True))
        entry.terminator = BranchInstr(condition, left.name, right.name)
        left.terminator = JumpInstr(right.name)
        right.terminator = ReturnInstr(None)
        return function, entry, left, right

    def test_shared_until_the_cfg_changes(self):
        function, entry, left, right = self.diamond()
        cfg = function.cfg()
        assert function.cfg() is cfg
        assert compute_dominators(function) is cfg.idom
        assert function.predecessors()[right.name] == [entry.name, left.name]
        left.instructions.append(ConstantInstr(Value("k"), 1))  # no edge moved
        assert function.cfg() is cfg

    def test_terminator_assignment(self):
        function, entry, left, right = self.diamond()
        assert compute_dominators(function)[right.name] == entry.name
        entry.terminator = JumpInstr(left.name)
        assert function.predecessors()[right.name] == [left.name]
        assert compute_dominators(function)[right.name] == left.name

    def test_retarget_through_the_block(self):
        function, entry, left, right = self.diamond()
        assert function.predecessors()[left.name] == [entry.name]
        entry.retarget(left.name, right.name)
        assert function.predecessors()[left.name] == []
        assert function.predecessors()[right.name] == [entry.name, entry.name,
                                                       left.name]

    def test_new_block_and_remove_block(self):
        function, entry, left, right = self.diamond()
        assert find_natural_loops(function) == []
        latch = function.new_block("latch")
        assert latch.name in function.predecessors()
        latch.terminator = JumpInstr(left.name)
        left.terminator = BranchInstr(
            entry.instructions[0].result, latch.name, right.name
        )
        assert loop_headers(function) == {left.name}
        left.terminator = JumpInstr(right.name)
        function.remove_block(latch.name)
        assert latch.name not in function.predecessors()
        assert loop_headers(function) == set()
