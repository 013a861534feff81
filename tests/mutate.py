"""Mutation check: every guard below must make a fast tier-1 subset fail when broken.

    python tests/mutate.py          # every mutant, JOBS at a time

To run one mutant, call `first_failure(mutant, scratch_dir)`.

Each mutant rewrites one statement or expression of one function in a copy
of `src/vmemsim`, found by its source as `ast.unparse` prints it, so a
mutant whose target has changed or become ambiguous stops the run instead
of passing.  The subset runs with `-x` against each copy; a mutant that
passes it survives, and any survivor makes the script exit 1.  The clean
copy runs the subset first, so a subset that already fails kills nothing.

A guard added later adds its mutant here.  A survivor gets a test that
kills it, or, once the guarded code is shown not to be needed, the code goes
with its mutant.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vmemsim"

#: the tests each mutant runs against, fastest killers first
SUBSET = (
    "tests/test_golden.py", "tests/test_engine.py", "tests/test_baselines.py",
    "tests/test_records.py", "tests/test_attacks.py", "tests/test_promem.py",
    "tests/test_metamorphic.py", "tests/test_parse_loop.py",
)

#: seconds one subset run may take before its mutant counts as killed by a hang
TIMEOUT_S = 300

#: mutants run at once
JOBS = 2


class Mutant(NamedTuple):
    name: str
    module: str          # file under src/vmemsim
    function: str        # qualified name: "Class.method" or "function"
    original: str        # one statement or expression, as ast.unparse prints it
    replacement: str     # its stand-in; "pass" deletes a statement


#: the end of the parse loop `traceio._compile_parser` writes, as `ast.unparse` prints it
_PARSE_LOOP_TAIL = (
    "'                else:\\n                    raise KeyError(k)\\n                append(ev)"
    "\\n            except (IndexError, KeyError, ValueError):\\n                if t and not "
    "t[0].startswith(\"#\"):\\n                    yield events\\n                    "
    "_diagnose(t, lineno + lines.index(line))\\n        lineno += len(lines)\\n        "
    "yield events\\n'"
)

MUTANTS = (
    # the replay loop: seq order, the seq in a handler's error, sampling, invariant checks
    Mutant("replay_allows_a_repeated_seq", "engine.py", "_Machine.replay",
           "seq <= last", "seq < last"),
    Mutant("replay_skips_error_rewrite", "engine.py", "_Machine.replay",
           "raise SimulationError(f'event seq {seq}: {exc}') from exc", "raise"),
    Mutant("replay_sample_point_off_by_one", "engine.py", "_Machine.replay",
           "due = interval", "due = interval + 1"),
    Mutant("replay_drops_final_sample", "engine.py", "_Machine.replay",
           "if count % interval:\n    sample(count)", "pass"),
    Mutant("replay_skips_invariant_check", "engine.py", "_Machine.replay",
           "self.check_invariants()", "pass"),
    # liveness checked inline, not through a helper (asmi's alloc reaches
    # ProMem.allocate_page only on a reclaim or a full pool)
    Mutant("asmi_alloc_skips_liveness", "engine.py", "AsmiMachine.on_alloc",
           "if owner is None:\n    raise self.err(ev, f'vm {vm} is not live')", "pass"),
    Mutant("asmi_free_skips_liveness", "engine.py", "AsmiMachine.on_free",
           "if vm not in self.live:\n    raise self.err(ev, f'vm {vm} is not live')", "pass"),
    Mutant("baseline_alloc_skips_liveness", "baselines.py", "BaselineMachine.on_alloc",
           "if guest is None:\n    raise self.err(ev, f'vm {vm} is not live')", "pass"),
    Mutant("baseline_free_skips_liveness", "baselines.py", "BaselineMachine.on_free",
           "if guest is None:\n    raise self.err(ev, f'vm {vm} is not live')", "pass"),
    # a device address outside DmaRequest's bounds, and a DMA page outside the pool
    Mutant("dma_skips_device_bounds", "engine.py", "_Machine.on_dma",
           "DmaRequest(bus, device, function, dva, bool(ev.write))", "pass"),
    Mutant("dma_bus_bound_off_by_one", "engine.py", "_Machine.on_dma",
           "0 <= bus < MAX_BUS", "0 <= bus <= MAX_BUS"),
    Mutant("dma_function_bound_off_by_one", "engine.py", "_Machine.on_dma",
           "0 <= function < MAX_FUNCTION", "0 <= function <= MAX_FUNCTION"),
    Mutant("dma_negative_dva_passes", "engine.py", "_Machine.on_dma", "dva >= 0", "True"),
    Mutant("asmi_dma_skips_page_range", "engine.py", "AsmiMachine._dma",
           "not 0 <= page < self.pages_total", "False"),
    Mutant("raw_dma_skips_page_range", "baselines.py", "BaselineMachine._dma",
           "not 0 <= page < self.pages_total", "page < 0"),
    # the vTLB's reverse index, kept in step with its entries
    Mutant("vtlb_insert_skips_index", "baselines.py", "VirtualTlb.insert",
           "keys_of[phys] = keys_of.get(phys, ()) + (key,)", "pass"),
    Mutant("vtlb_reinsert_keeps_old_index", "baselines.py", "VirtualTlb.insert",
           "self._unindex(key, old)", "pass"),
    Mutant("vtlb_evict_keeps_index", "baselines.py", "VirtualTlb.insert",
           "keys_of.pop(evicted)", "keys_of[evicted]"),
    Mutant("vtlb_evict_keeps_shared_key", "baselines.py", "VirtualTlb.insert",
           "len(keys) > 1", "len(keys) > 2"),
    Mutant("vtlb_unindex_keeps_shared_key", "baselines.py", "VirtualTlb._unindex",
           "len(keys) > 1", "len(keys) > 2"),
    Mutant("vtlb_invalidate_keeps_index", "baselines.py", "VirtualTlb.invalidate",
           "self._unindex((asid, vpage), page)", "pass"),
    Mutant("vtlb_invalidate_phys_keeps_index", "baselines.py", "VirtualTlb.invalidate_phys",
           "self.keys_of.pop(page, ())", "self.keys_of.get(page, ())"),
    Mutant("vtlb_flush_keeps_index", "baselines.py", "VirtualTlb.flush",
           "self.keys_of.clear()", "pass"),
    # the vTLB invalidations of the page-pool hypervisor
    Mutant("rmap_write_skips_invalidation", "baselines.py", "BaselineMachine.on_rmap_write",
           "self.tlb.invalidate_phys(old)", "pass"),
    Mutant("free_skips_moved_ppage_invalidation", "baselines.py", "BaselineMachine._free_page",
           "for key in keys_of.pop(mapped, ()):\n    del entries[key]", "pass"),
    Mutant("free_skips_invalidation", "baselines.py", "BaselineMachine._free_page",
           "for key in keys_of.pop(page, ()):\n    del entries[key]", "pass"),
    Mutant("alloc_skips_real_map_invalidation", "baselines.py", "BaselineMachine.on_alloc",
           "self.tlb.invalidate_phys(old)", "pass"),
    Mutant("alloc_skips_guest_entry_invalidation", "baselines.py", "BaselineMachine.on_alloc",
           "self.tlb.invalidate(guest.asids.values(), vpage)", "pass"),
    Mutant("gpt_write_skips_invalidation", "baselines.py", "BaselineMachine.on_gpt_write",
           "self.tlb.invalidate(guest.asids.values(), ev.vpage)", "pass"),
    # the segment controller's guards, each read from the owner's record
    Mutant("promem_alloc_skips_liveness", "promem.py", "ProMem.allocate_page",
           "if owner is None:\n    raise LifecycleError(f'vm {vm} is not live')", "pass"),
    Mutant("promem_free_skips_cross_owner_fault", "promem.py", "ProMem.free_page",
           "holder != vm", "False"),
    Mutant("promem_free_skips_save_slot_guard", "promem.py", "ProMem.free_page",
           "s == owner.slot_segment and index == 0", "False"),
    Mutant("promem_free_skips_double_free_guard", "promem.py", "ProMem.free_page",
           "not mask & bit", "False"),
    # asmi's alloc takes the open segment's next page inline: stale entries
    # and a filled segment leave its heap as in ProMem.allocate_page
    Mutant("asmi_alloc_keeps_stale_open_entries", "engine.py", "AsmiMachine.on_alloc",
           "while heap and pm.mpt.get(heap[0]) != vm:\n    heappop(heap)", "pass"),
    Mutant("asmi_alloc_keeps_a_full_segment_open", "engine.py", "AsmiMachine.on_alloc",
           "if mask == pm.full_mask:\n    heappop(heap)", "pass"),
    Mutant("promem_reclaim_tie_goes_to_higher_vm", "promem.py", "ProMem._reclaim",
           "excess > worst_excess", "excess >= worst_excess"),
    Mutant("promem_reclaim_takes_slot_segment", "promem.py", "ProMem._reclaim",
           "segs - {slot}", "segs"),
    Mutant("promem_reclaim_takes_lowest_segments", "promem.py", "ProMem._reclaim",
           "sorted(segs - {slot})[-worst_excess:]", "sorted(segs - {slot})[:worst_excess]"),
    Mutant("promem_claim_skips_the_reclaim", "promem.py", "ProMem._claim_or_reclaim",
           "(notice := self._reclaim(seq)) is not None", "False"),
    # translate reads the owner through current(), which holds the one pre-boot check
    Mutant("promem_translate_skips_pre_boot_check", "promem.py", "ProMem.current",
           "if HYPERVISOR not in self.owners:\n    raise ProtocolError('no owner is current "
           "before the hypervisor loads')", "pass"),
    Mutant("promem_check_owner_passes_free_segments", "promem.py", "ProMem.check_owner",
           "owner == vmid", "owner == vmid or owner is None"),
    # the CPU access path, inline in each handler: asmi's ownership check and
    # range check, the vTLB hit's key, the shadow walk's real-map step, each
    # mode's vpage arithmetic, and the cpu a CPU violation records
    Mutant("asmi_read_passes_foreign_segments", "engine.py", "AsmiMachine.on_read",
           "pm.mpt.get(target // pm.pps) != cur", "False"),
    Mutant("asmi_read_skips_lower_bound", "engine.py", "AsmiMachine.on_read",
           "not 0 <= target < self.pages_total", "not target < self.pages_total"),
    Mutant("nested_vtlb_hit_ignores_asid", "baselines.py", "BaselineMachine.on_read",
           "(guest.asid, vpage)", "(0, vpage)"),
    Mutant("hyperwall_vtlb_hit_ignores_asid", "baselines.py", "HyperwallMachine.on_read",
           "(guest.asid, vpage)", "(0, vpage)"),
    Mutant("shadow_read_skips_real_map", "baselines.py", "ShadowMachine.on_read",
           "guest.rmap.get(page)", "page"),
    Mutant("hyperwall_read_assumes_256_byte_pages", "baselines.py", "HyperwallMachine.on_read",
           "ev.vaddr // self.page_size_bytes", "ev.vaddr >> 8"),
    Mutant("cpu_violation_records_cpu_0", "baselines.py", "BaselineMachine.on_read",
           "_new(Violation, (ev.seq, ev.cpu, 'cpu', vm, page, owner))",
           "_new(Violation, (ev.seq, 0, 'cpu', vm, page, owner))"),
    # switches, flushes and the guest lifecycle
    Mutant("switch_flush_goes_uncounted", "engine.py", "_Machine._count_switch",
           "t.tlb_flushes += 1", "pass"),
    Mutant("pswitch_counts_as_a_context_switch", "engine.py", "_Machine._count_switch",
           "kind == 'pswitch'", "False"),
    Mutant("pswitch_reuses_the_current_real_asid", "baselines.py", "BaselineMachine.on_pswitch",
           "guest.asids[ev.vasid] = next(self.real_asids)", "guest.asids[ev.vasid] = guest.asid"),
    Mutant("destroy_vm_allows_a_current_vm", "baselines.py", "BaselineMachine.on_destroy_vm",
           "ev.vm in self.current.values()", "False"),
    Mutant("baseline_free_skips_owner_check", "baselines.py", "BaselineMachine.on_free",
           "self.owner_of.get(page) != vm", "False"),
    Mutant("asmi_reclaim_keeps_victim_vpages", "engine.py", "AsmiMachine._count_reclaim",
           "del table[vpage]", "pass"),
    Mutant("shadow_rmap_write_drops_update_steps", "baselines.py", "ShadowMachine.on_rmap_write",
           "self.tally[ev.kind].shadow_update_steps += steps", "pass"),
    # DMA remapping and protection bits
    Mutant("dma_fault_records_device_0", "engine.py", "_Machine._dma_fault",
           "ev.device or 0", "0"),
    Mutant("iommu_free_skips_unmap", "baselines.py", "IommuMachine._free_page",
           "self.remap.unmap_phys(page)", "pass"),
    Mutant("iommu_alloc_skips_map", "baselines.py", "BaselineMachine.on_alloc",
           "self.remap.map_page(guest.domain, ppage, page)", "pass"),
    Mutant("iommu_late_assign_forgets_the_domain", "baselines.py",
           "IommuMachine.on_domain_assign", "guest.domain = ev.domain", "pass"),
    Mutant("hyperwall_alloc_leaves_bits_unset", "baselines.py", "HyperwallMachine.on_alloc",
           "self.page_mode[page] = _HYP_DMA", "pass"),
    Mutant("hw_set_skips_owner_check", "baselines.py", "HyperwallMachine.on_hw_set",
           "requester == owner or (requester == HYPERVISOR and owner is None)", "True"),
    # the page-pool hypervisor's reclaim: the largest other holder's highest page,
    # the lowest vm on a tie, and the next holder past one with every page locked
    Mutant("baseline_reclaim_takes_lowest_page", "baselines.py",
           "BaselineMachine._reclaim_one_page", "reversed(guests[victim].held)",
           "guests[victim].held"),
    Mutant("baseline_reclaim_takes_smallest_holder", "baselines.py",
           "BaselineMachine._reclaim_one_page", "count > most",
           "count > 0 and (victim is None or count < most)"),
    Mutant("baseline_reclaim_tie_goes_to_higher_vm", "baselines.py",
           "BaselineMachine._reclaim_one_page", "count > most", "count >= most"),
    Mutant("baseline_reclaim_retries_a_passed_holder", "baselines.py",
           "BaselineMachine._reclaim_one_page", "vm not in passed", "True"),
    # the report writers: key-sorted JSON records, json-encoded non-int values,
    # --util-out's column order, and means over sample points, not rows
    Mutant("json_writer_keys_in_field_order", "engine.py", "_json_writer",
           "sorted(zip(cls._fields, values))", "zip(cls._fields, values)"),
    Mutant("json_writer_renders_values_with_str", "engine.py", "_json_writer",
           "json.JSONEncoder(sort_keys=True, separators=(',', ':')).encode", "str"),
    Mutant("util_out_swaps_segments_and_pages", "cli.py", "_write_outputs",
           "f'{prefix},{index},{owner},{segments},{pages}\\n'",
           "f'{prefix},{index},{owner},{pages},{segments}\\n'"),
    Mutant("mean_utilization_divides_by_rows", "engine.py", "MetricsReport.mean_utilization",
           "index != last", "True"),
    Mutant("summary_prints_reclaim_segments_as_a_tuple", "cli.py", "_summary",
           "fields['segments'] = list(record.segments)", "pass"),
    # the ledger records built by tuple.__new__, which checks no field count
    # or order: one swap of two fields per record class
    Mutant("isolation_fault_swaps_vmid_and_owner", "promem.py", "ProMem.check_owner",
           "(seq, cpu, vmid, s, owner)", "(seq, cpu, owner, s, vmid)"),
    Mutant("reclaim_notice_swaps_excess_and_pages", "promem.py", "ProMem._reclaim",
           "(seq, victim, worst_excess, tuple(freed), swapped)",
           "(seq, victim, swapped, tuple(freed), worst_excess)"),
    Mutant("memory_full_swaps_seq_and_vm", "promem.py", "ProMem.allocate_page",
           "(seq, vm)", "(vm, seq)"),
    Mutant("dma_fault_swaps_dva_and_reason", "engine.py", "_Machine._dma_fault",
           "(ev.seq, ev.bus or 0, ev.device or 0, ev.function or 0, dva, reason)",
           "(ev.seq, ev.bus or 0, ev.device or 0, ev.function or 0, reason, dva)"),
    Mutant("dma_violation_swaps_page_and_owner", "baselines.py", "BaselineMachine._dma",
           "(ev.seq, ev.cpu, 'dma', -1 if issuer is None else issuer, page, owner)",
           "(ev.seq, ev.cpu, 'dma', -1 if issuer is None else issuer, owner, page)"),
    Mutant("denial_swaps_page_and_owner", "baselines.py", "HyperwallMachine.on_read",
           "(ev.seq, ev.cpu, requester, page, mode, owner)",
           "(ev.seq, ev.cpu, requester, owner, mode, page)"),
    # an event's class: its kind's layout, keyed by the kind's token
    Mutant("trace_event_takes_the_full_layout", "events.py", "TraceEvent.__new__",
           "LAYOUT_OF[kind]", "FULL_LAYOUT"),
    # argument guards tier-1 reaches only through tests/test_records.py's REJECTIONS
    Mutant("generate_skips_device_count_check", "workload.py", "generate",
           "spec.vm_count > MAX_BUS * MAX_DEVICE", "False"),
    Mutant("static_partition_accepts_interval_0", "engine.py", "static_partition_utilization",
           "if sample_interval < 1:\n    raise ConfigError(f'sample_interval must be >= 1, "
           "got {sample_interval}')", "pass"),
    Mutant("static_partition_accepts_an_unknown_vm", "engine.py", "static_partition_utilization",
           "if (ev.kind == EventKind.ALLOC or ev.kind == EventKind.FREE) and ev.vm not in "
           "live:\n    raise SimulationError(f'event seq {ev.seq}: vm {ev.vm} is not live')",
           "pass"),
    Mutant("trace_event_accepts_an_unknown_kind", "events.py", "TraceEvent.__new__",
           "if kind not in EVENT_FIELDS:\n    raise TraceFormatError(f'event seq {seq}: unknown "
           "event kind {kind!r}')", "pass"),
    # a kind set after an event was built, named with its seq, as the replay meets it
    Mutant("replay_names_no_unknown_kind", "engine.py", "_Machine.replay",
           "if ev.kind not in handlers:\n    raise self.err(ev, f'unknown event kind "
           "{ev.kind!r}') from None", "pass"),
    Mutant("static_partition_keeps_a_destroyed_vm_live", "engine.py",
           "static_partition_utilization", "live.discard(ev.vm)", "pass"),
    # the compiled parse loop: a line's width, checked by the unpack of its tokens,
    # and the events above a malformed line, yielded before its error
    Mutant("parse_loop_lets_extra_tokens_through", "traceio.py", "_compile_parser",
           "f\"                    {', '.join(names)} = t\\n\"",
           "f\"                    {', '.join(names)} = t[:{len(names)}]\\n\""),
    Mutant("parse_loop_diagnoses_before_yielding", "traceio.py", "_compile_parser",
           _PARSE_LOOP_TAIL,
           _PARSE_LOOP_TAIL.replace("                    yield events\\n", "", 1)),
    # a cpu or vm token read from the table of 0..255, and through `int` outside it
    Mutant("parse_loop_misreads_a_small_token", "traceio.py", "_compile_parser",
           "{str(i): i for i in range(256)}", "{str(i): i ^ 1 for i in range(256)}"),
    Mutant("parse_loop_reads_no_token_outside_the_table", "traceio.py", "_compile_parser",
           "f'int({name}) if x is None else x'", "'x'"),
)


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    node: ast.AST = tree
    for part in qualname.split("."):
        found = [n for n in ast.iter_child_nodes(node)
                 if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part]
        if len(found) != 1:
            raise LookupError(f"{qualname}: {len(found)} definitions of {part!r}")
        node = found[0]
    return node


class _Replace(ast.NodeTransformer):
    def __init__(self, target: ast.AST, replacement: ast.AST):
        self.target, self.replacement = target, replacement

    def generic_visit(self, node):
        return self.replacement if node is self.target else super().generic_visit(node)


def mutated_source(mutant: Mutant) -> str:
    """The source of `mutant.module` with the mutant applied; LookupError unless
    its original names exactly one node of its function."""
    tree = ast.parse((SRC / mutant.module).read_text())
    matches = [n for n in ast.walk(_function(tree, mutant.function))
               if isinstance(n, (ast.stmt, ast.expr)) and ast.unparse(n) == mutant.original]
    # an expression statement prints as its expression: keep the statement
    matches = [n for n in matches if not any(isinstance(o, ast.Expr) and o.value is n
                                             for o in matches)]
    if len(matches) != 1:
        raise LookupError(f"{mutant.name}: {len(matches)} matches of {mutant.original!r}")
    target = matches[0]
    if isinstance(target, ast.stmt):
        replacement = ast.parse(mutant.replacement).body[0]
    else:
        replacement = ast.parse(mutant.replacement, mode="eval").body
    tree = _Replace(target, replacement).visit(tree)
    return ast.unparse(ast.fix_missing_locations(tree))


def first_failure(mutant: Mutant | None, scratch: Path) -> str | None:
    """The first test the subset fails with `mutant` applied, None when it passes.

    With no mutant, every module a mutant rewrites still goes through
    `ast.unparse`, so the round trip itself is checked.
    """
    src = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copytree(SRC, src / "vmemsim", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is None:
        for module in {m.module for m in MUTANTS}:
            (src / "vmemsim" / module).write_text(
                ast.unparse(ast.parse((SRC / module).read_text())))
    else:
        (src / "vmemsim" / mutant.module).write_text(mutated_source(mutant))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *SUBSET]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return None
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit status {done.returncode}"


def main() -> int:
    for mutant in MUTANTS:
        mutated_source(mutant)  # every target resolves before anything runs
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="vmemsim-mutants-") as scratch:
        failure = first_failure(None, Path(scratch))
        if failure is not None:
            print(f"the unmutated copy fails the subset: {failure}", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = pool.map(lambda m: (m, first_failure(m, Path(scratch))), MUTANTS)
            survivors = []
            for mutant, failure in outcomes:
                if failure is None:
                    survivors.append(mutant.name)
                print(f"{mutant.name}: {failure or 'SURVIVED'}", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - start:.0f} s")
    if survivors:
        print(f"survivors: {', '.join(survivors)}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
