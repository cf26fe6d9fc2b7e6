# Convenience targets for the reproduction repository.

.PHONY: install test accel-check bench bench-smoke bench-compare bench-paper figures examples obs-smoke trace-smoke chaos-smoke check-smoke fabric-smoke perf-smoke perf all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# The default kernel must really be the compiled wheel (an unavailable
# accelerator falls back to the heap calendar with a warning, which a test
# suite does not notice), and _speedup.c must compile warning-free (its own
# warnings: CPython deprecating an API it still ships is not one).
accel-check:
	python -c "from repro.simnet import Simulator; s = Simulator().calendar_stats(); \
		assert s['accelerator'] == 'live', (s['accelerator'], s['accelerator_reason'])"
	$${CC:-cc} -O2 -fPIC -Wall -Wextra -Werror -Wno-deprecated-declarations \
		-I"$$(python -c 'import sysconfig; print(sysconfig.get_paths()["include"])')" \
		-c src/repro/simnet/_speedup.c -o /dev/null

bench:
	pytest benchmarks/ --benchmark-only

# Simulator micro-benchmarks only, with results recorded for comparison
# against the committed BENCH_simulator.json baseline.
bench-smoke:
	REPRO_BENCH_QUALITY=smoke pytest benchmarks/test_simulator_performance.py \
		--benchmark-only --benchmark-json=BENCH_simulator.json

# Regression gate: rerun the simulator micro-benchmarks into a scratch
# file and compare against the committed baseline.  Gates on the *min*
# round (a real regression raises the floor; host time-sharing noise
# mostly raises the ceiling) with a 40% threshold sized for the regime
# swings observed on shared runners.  The real-bytes blast benchmarks
# are advisory (host memcpy bandwidth, noisiest numbers); the
# event-calendar benchmarks block.
bench-compare:
	REPRO_BENCH_QUALITY=smoke pytest benchmarks/test_simulator_performance.py \
		--benchmark-only --benchmark-json=bench-current.json
	python benchmarks/bench_compare.py BENCH_simulator.json bench-current.json \
		--stat min --threshold 0.40 --advisory 'test_real_bytes_*'

bench-paper:
	REPRO_BENCH_QUALITY=paper pytest benchmarks/ --benchmark-only

# Telemetry gate: run a traced scenario through the full obs pipeline,
# fail on export-schema drift or incomplete span coverage, and leave the
# JSONL artifact behind for inspection / CI upload.
# Multi-host fabric gate: a 16-sender incast through one switched sink
# port, audited for stream-integrity violations, on the shared
# (SRQ + CQ-shard) and per-connection resource paths.
fabric-smoke:
	python -m repro.apps.incast --senders 16 --bytes 65536 \
		--message-bytes 16384 --audit
	python -m repro.apps.incast --senders 16 --bytes 65536 \
		--message-bytes 16384 --srq-depth 512 --cq-shards 4 --audit
	python -m repro.apps.incast --senders 16 --bytes 65536 \
		--message-bytes 16384 --policy drop --port-queue-bytes 16384 --audit

obs-smoke:
	python -m repro.obs smoke --out telemetry-smoke.jsonl

# Causal-trace gate: run a heavy-loss blast under causal capture, require
# every message's critical-path segments to reconcile exactly with its
# measured e2e latency (including nonzero retransmit_backoff), and emit a
# Chrome trace-event JSON that passes the strict validator.
trace-smoke:
	python -m repro.obs trace --smoke --out trace-smoke.json

# Fault-injection gate: stream transfers over a lossy wire must stay
# byte-exact (or fail loudly), with a reduced sweep for CI turnaround.
chaos-smoke:
	REPRO_CHAOS_QUALITY=smoke pytest tests/chaos -q $(PYTEST_FLAGS)

# Correctness gate (< 60 s): exhaust the default small scope in the model
# checker, then fuzz 50 schedule seeds through the full stack.  Violations
# leave a shrunk, replayable counterexample JSON behind for CI upload.
check-smoke:
	python -m repro.check explore --json counterexample-explore.json
	python -m repro.check explore --sends 3,2 --recvs 4w,1 \
		--json counterexample-explore-waitall.json
	python -m repro.check fuzz --seeds 50 --json counterexample-fuzz.json

# End-to-end + per-layer host-time benchmark (perf/README.md; the gate
# every perf PR is judged by, declared in BENCHMARK.json).  The smoke
# target runs the harness's own tests and four short untraced workloads
# (echo_small; blast_stream, the workload perf claims are made on;
# incast_fanin, the only one that runs the CQ-shard pollers; and
# blast_lossy, the only one with retransmit timers and NAKs) — run.py
# exits non-zero on any correctness failure (fingerprint drift
# between repetitions, truncation, accelerator status change) — and
# leaves its result document behind for CI upload.  `make perf` is the
# full run (4 workloads, untraced + traced, a few minutes); compare two
# of its outputs with `python3 perf/compare.py A.json B.json`.
perf-smoke:
	PYTHONPATH=src python -m pytest perf/
	python3 perf/run.py --workload echo_small --seconds 4 --trace 0 \
		--out perf-smoke.json
	python3 perf/run.py --workload blast_stream --seconds 4 --trace 0 \
		--out perf-smoke-blast.json
	python3 perf/run.py --workload incast_fanin --seconds 4 --trace 0 \
		--out perf-smoke-incast.json
	python3 perf/run.py --workload blast_lossy --seconds 4 --trace 0 \
		--out perf-smoke-lossy.json

perf:
	python3 perf/run.py --out perf-result.json

figures:
	python -m repro.bench

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

all: test bench figures
