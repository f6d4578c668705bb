"""Tests of the benchmark's own output checks and job stream.

    python3 perfbench/test_run.py
"""

import importlib.util
import unittest
from collections import Counter
from pathlib import Path

_spec = importlib.util.spec_from_file_location("run", Path(__file__).with_name("run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

COUNTERS = "e4m3.quantized=4096;e4m3.saturated=3;"
GROUPS = [
    ["chunk:resnet50-ish", "resnet50-ish|E4M3/static|0x1.d4p-1|0x1.d2p-1|0x1.8p-3\n" + COUNTERS],
    ["chunk:bloom7b-ish", "bloom7b-ish|E3M4/static|0x1.ep-1|0x1.dcp-1|0x1p-4\n" + COUNTERS],
]


def stored_for(groups, workload="sweep", key="0"):
    return {workload: {key: {name: run.digest(content) for name, content in groups}}}


class CheckGroups(unittest.TestCase):
    def test_untouched_run_passes(self):
        _, problems, _ = run.check_groups("sweep", 0, GROUPS, stored_for(GROUPS))
        self.assertEqual(problems, [])

    def test_tampered_record_is_caught(self):
        tampered = [GROUPS[0], [GROUPS[1][0], GROUPS[1][1].replace("0x1.dcp-1", "0x1.ddp-1")]]
        _, problems, _ = run.check_groups("sweep", 0, tampered, stored_for(GROUPS))
        self.assertEqual(len(problems), 1)
        self.assertIn("chunk:bloom7b-ish", problems[0])

    def test_tampered_counter_is_caught(self):
        tampered = [[GROUPS[0][0], GROUPS[0][1].replace("saturated=3", "saturated=4")]]
        _, problems, _ = run.check_groups("sweep", 0, tampered, stored_for(GROUPS))
        self.assertEqual(len(problems), 1)

    def test_repeat_that_differs_is_caught_at_any_seed(self):
        repeat = [GROUPS[0], [GROUPS[0][0], GROUPS[0][1] + "x"]]
        _, problems, _ = run.check_groups("sweep", 12345, repeat, stored_for(GROUPS))
        self.assertEqual(len(problems), 1)
        self.assertIn("repeat", problems[0])

    def test_serve_digests_hold_at_every_seed(self):
        stored = stored_for(GROUPS, "serve", "*")
        tampered = [[GROUPS[0][0], GROUPS[0][1] + ";"]]
        self.assertEqual(run.check_groups("serve", 7, GROUPS, stored)[1], [])
        self.assertEqual(len(run.check_groups("serve", 7, tampered, stored)[1]), 1)

    def test_run_with_no_stored_group_is_caught(self):
        other = [["chunk:unknown", COUNTERS]]
        _, problems, _ = run.check_groups("sweep", 0, other, stored_for(GROUPS))
        self.assertEqual(len(problems), 1)

    def test_run_digest_depends_on_every_group(self):
        a = run.check_groups("sweep", 3, GROUPS, {})[0]
        b = run.check_groups("sweep", 3, GROUPS[:1], {})[0]
        self.assertNotEqual(a, b)


class JobStream(unittest.TestCase):
    def test_every_block_is_the_same_multiset(self):
        base = Counter(run.job_block(0, 0))
        for seed in range(5):
            for index in range(3):
                self.assertEqual(Counter(run.job_block(seed, index)), base)
        self.assertEqual(sum(base.values()), 32)
        self.assertEqual(sum(n for (kind, _, _), n in base.items() if kind == "quantize"), 8)

    def test_every_fourth_job_is_a_quantize_job(self):
        block = run.job_block(3, 1)
        self.assertTrue(all((job[0] == "quantize") == (i % 4 == 3) for i, job in enumerate(block)))

    def test_seed_changes_only_the_order(self):
        self.assertEqual(run.job_block(4, 0), run.job_block(4, 0))
        self.assertNotEqual(run.job_block(4, 0), run.job_block(5, 0))

    def test_stream_submits_whole_blocks(self):
        stream = run.JobStream(0, 2)
        jobs = iter(stream.next, None)
        self.assertEqual(len(list(jobs)), 64)


class Tail(unittest.TestCase):
    def test_tail_leaves_ten_samples_above(self):
        value, pct = run.percentile_tail(list(range(100)))
        self.assertEqual(value, 89)
        self.assertAlmostEqual(pct, 90.0)

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(run.percentile_tail([3.0, 1.0, 2.0]), (3.0, 100.0))


if __name__ == "__main__":
    unittest.main()
