# Convenience targets; the repo needs only the Go toolchain.

.PHONY: build test lint loc strays verify trace-demo telemetry-demo errmap-demo tune-demo bench benchdiff results results-check chaos chaos-race chaos-recovery fuzz clean

build:
	go build ./...

test:
	go test ./...

# verify is the tier-1 recipe from ROADMAP.md: full build + tests, vet,
# a shuffled-order test pass (no test may depend on package test order;
# the shuffle seed is echoed by the test binary on failure, rerun with
# go test -shuffle=<seed>), the race detector over every package (rank
# bodies are goroutines that hand one baton between them; it checks
# that every access to shared state is ordered by that handoff or by a
# lock), the determinism smoke — FuzzScheduler's committed seeds,
# which hold the baton scheduler to the reference scheduler it replaced
# (docs/DETERMINISM.md) — fixed-seed chaos sweeps, one of them under
# the race detector, and the structure-factor example, the executed
# caller of the real-to-complex plan (it exits 1 when its Bragg peak
# misses).
# `go test ./...` includes the dead-code gate (deadcode_test.go). The
# last step, strays, fails the recipe if anything it (or anyone else)
# started from this module is still running.
verify:
	go build ./...
	go test ./...
	go test -shuffle=on ./...
	$(MAKE) lint
	go test -race ./...
	go test -run '^FuzzScheduler$$' ./internal/netsim/
	go run ./cmd/chaos -seeds 8
	go run -race ./cmd/chaos -seeds 8
	$(MAKE) chaos-recovery
	$(MAKE) fuzz
	$(MAKE) telemetry-demo
	$(MAKE) errmap-demo
	$(MAKE) tune-demo
	go run ./examples/structurefactor
	$(MAKE) strays

# strays fails, listing them, if a process whose executable is one of
# this module's binaries — benchmark, a cmd/* driver, an examples/*
# program (`go run ./examples/structurefactor` in verify), a test
# binary — is alive: a backgrounded run left behind (test binaries
# wherever they run). It also lists the toolchain processes (go, compile, link, vet)
# whose working directory is inside this checkout: a `go test`, `go run`
# or build that outlived its caller. It matches executable names in `ps -eo pid,comm` and
# working directories in /proc/<pid>/cwd; `pgrep -f` would match the
# shell that runs the check. Prints nothing when clean.
STRAY_NAMES = benchmark $(filter-out internal,$(notdir $(wildcard cmd/*))) $(notdir $(wildcard examples/*))
STRAY_TOOLS = go compile link vet
strays:
	@root=$$(pwd -P); \
	out=$$(ps -eo pid,comm | awk -v names="$(STRAY_NAMES)" \
		'BEGIN { n = split(names, a, " "); for (i = 1; i <= n; i++) ours[a[i]] = 1 } \
		 NR > 1 && ($$2 in ours || $$2 ~ /\.test$$/)'); \
	tools=$$(ps -eo pid,comm | awk -v names="$(STRAY_TOOLS)" \
		'BEGIN { n = split(names, a, " "); for (i = 1; i <= n; i++) ours[a[i]] = 1 } \
		 NR > 1 && $$2 in ours' | \
		while read pid comm; do \
			cwd=$$(readlink /proc/$$pid/cwd 2>/dev/null) || continue; \
			case "$$cwd/" in "$$root"/*) echo "$$pid $$comm (in $$cwd)";; esac; \
		done); \
	out=$$(printf '%s\n%s\n' "$$out" "$$tools" | sed '/^$$/d'); \
	if [ -n "$$out" ]; then \
		echo "strays: processes of this module are still running:"; echo "$$out"; exit 1; fi

# lint: formatting and static analysis. gofmt must report nothing,
# go vet must be clean, and staticcheck runs when installed (the repo
# must not require it — CI images without it still get the vet tier).
# No non-test file under internal/ or cmd/ may import net, net/http,
# net/http/pprof or os/exec: nothing the tree starts may outlive its
# caller. benchmark/ is exempt (its foreground `go tool pprof` child and
# one-process-per-workload re-exec).
lint:
	@out=$$(gofmt -l . 2>/dev/null); if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi
	@out=$$(git grep -lE --untracked '"(net|net/http|net/http/pprof|os/exec)"' \
		-- 'internal/*.go' 'cmd/*.go' ':!*_test.go'); if [ -n "$$out" ]; then \
		echo "lint: listeners and child processes are not allowed here:"; echo "$$out"; exit 1; fi
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; go vet only"; \
	fi

# loc prints non-test and test Go lines per package: everything under
# internal/ and cmd/ (subtotalled, the number ROADMAP.md's older budgets
# quote), benchmark/, each example and the root package (the module-wide
# tests). A simplicity PR states its before/after from one command.
loc:
	@printf '%-28s %8s %8s\n' package non-test test
	@for d in $$(find internal cmd benchmark examples -name '*.go' -exec dirname {} \; | sort -u) .; do \
		printf '%-28s %8d %8d\n' $$(if [ $$d = . ]; then echo '(root)'; else echo $$d; fi) \
			$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) \
			$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
	done | awk '{print; n += $$2; t += $$3} /^(internal|cmd)\// {sn += $$2; st += $$3} \
		END {printf "%-28s %8d %8d\n%-28s %8d %8d\n", "internal+cmd", sn, st, "total", n, t}'

# chaos sweeps randomized seeded fault plans (drop storms, corruption,
# duplicates, degraded NICs, rank crashes) across every exchange
# algorithm, asserting that each run completes bit-identically or fails
# with an explicit attributed diagnostic (docs/ROBUSTNESS.md). Any
# failure reproduces with `go run ./cmd/chaos -start <seed> -seeds 1 -v`.
chaos:
	go run ./cmd/chaos -seeds 60

# chaos-race soaks the same sweep under the race detector.
chaos-race:
	go run -race ./cmd/chaos -seeds 25

# chaos-recovery sweeps the crash-recovery workloads: the same seeded
# fault plans run under the recovery controller (epoch checkpoints,
# rollback/respawn on crash verdicts, with double-fault and
# restart-budget stratification per seed — docs/ROBUSTNESS.md); seeds
# 1..20 hit all three crash paths (recover, unrecoverable, double
# fault). Part of `make verify`.
chaos-recovery:
	go run ./cmd/chaos -seeds 20 -workloads recover-osc,recover-comp

# fuzz runs every native fuzz target for a short fixed budget — the
# snapshot frame decoder and round-trip (internal/recover), the hostile
# window-slot decoder (internal/exchange), the tune-plan loader
# (internal/tune), the arithmetic reshape plan against the box-table
# one and the stride-stepping Pack/Unpack against a per-element
# Order.Index reference (internal/grid), the word-at-a-time Trim, Cast16 and
# Scaled(Cast16) kernels against their byte-at-a-time reference copies
# (internal/compress), the engine's per-source inbox against the
# per-(src, tag) map queue it replaced and the baton scheduler against
# the reference scheduler it replaced, over random rank programs
# (internal/netsim). The patterns
# are anchored: `go test -fuzz` rejects a pattern matching more than
# one target.
# Part of `make verify`; corpus findings land in testdata/fuzz/ — commit
# them as regression seeds.
FUZZTIME = 5s
fuzz:
	go test -run '^$$' -fuzz '^FuzzSnapshotFrame$$' -fuzztime $(FUZZTIME) ./internal/recover/
	go test -run '^$$' -fuzz '^FuzzSnapshotFrameRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/recover/
	go test -run '^$$' -fuzz '^FuzzDecodeSlot$$' -fuzztime $(FUZZTIME) ./internal/exchange/
	go test -run '^$$' -fuzz '^FuzzLoadTunePlan$$' -fuzztime $(FUZZTIME) ./internal/tune/
	go test -run '^$$' -fuzz '^FuzzPlanFor$$' -fuzztime $(FUZZTIME) ./internal/grid/
	go test -run '^$$' -fuzz '^FuzzPackUnpack$$' -fuzztime $(FUZZTIME) ./internal/grid/
	go test -run '^$$' -fuzz '^FuzzCodecMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/compress/
	go test -run '^$$' -fuzz '^FuzzMailbox$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	go test -run '^$$' -fuzz '^FuzzScheduler$$' -fuzztime $(FUZZTIME) ./internal/netsim/

# trace-demo runs a small compressed strong-scaling cell and writes a
# Chrome-trace JSON (open in chrome://tracing or ui.perfetto.dev) plus
# the phase-breakdown/metrics report. Analyze the trace with
# `go run ./cmd/tracetool trace-demo.json`.
trace-demo:
	go run ./cmd/fftbench -n 64 -sim 64 -gpus 24 -configs fp64-32,fp64-16 \
		-iters 1 -trace trace-demo.json -metrics

# telemetry-demo runs a short chaos soak with the JSONL event log on,
# then replays the stream offline with errmap -replay: whole, it must
# pass the integrity checks and the error ledger (exit 0); without its
# last line, the run_end marker, the replay must exit nonzero and name
# the truncation on an INTEGRITY: line. Part of `make verify`.
telemetry-demo:
	$(eval TMP := $(shell mktemp -d))
	go run ./cmd/chaos -seeds 6 -eventlog $(TMP)/events.jsonl
	go run ./cmd/errmap -replay $(TMP)/events.jsonl > $(TMP)/replay.txt
	grep -E '^(replay|errtrack) ' $(TMP)/replay.txt
	sed '$$d' $(TMP)/events.jsonl > $(TMP)/cut.jsonl
	! go run ./cmd/errmap -replay $(TMP)/cut.jsonl > $(TMP)/cut.txt
	grep 'INTEGRITY: stream ends without a run_end marker' $(TMP)/cut.txt
	rm -rf $(TMP)
	@echo "telemetry-demo: stream replayed clean, truncation detected"

# errmap-demo runs a small lossy bench with the event log and the
# error-provenance artifact on, then renders the attribution ledger from
# both sources — the JSONL replay and the -errtrack artifact — and
# asserts they derive the identical errtrack verdict (the live/replay
# parity contract of docs/OBSERVABILITY.md). Part of `make verify`.
errmap-demo:
	$(eval TMP := $(shell mktemp -d))
	go run ./cmd/fftbench -n 32 -sim 64 -gpus 12 -configs fp64-32,fp64-16 -iters 1 \
		-eventlog $(TMP)/events.jsonl -errtrack $(TMP)/errtrack.json > /dev/null
	go run ./cmd/errmap -replay $(TMP)/events.jsonl > $(TMP)/replay.txt
	go run ./cmd/errmap -artifact $(TMP)/errtrack.json > $(TMP)/artifact.txt
	grep '^errtrack ' $(TMP)/replay.txt
	grep '^errtrack ' $(TMP)/replay.txt > $(TMP)/v-replay.txt
	grep '^errtrack ' $(TMP)/artifact.txt > $(TMP)/v-artifact.txt
	cmp $(TMP)/v-replay.txt $(TMP)/v-artifact.txt
	rm -rf $(TMP)
	@echo "errmap-demo: replay and artifact derive identical verdicts"

# tune-demo exercises the full autotuner loop (docs/TUNING.md): tune the
# baseline FFT and all-to-all shapes with -autotune, gate the tuned
# artifacts against the committed fixed-config baselines (benchdiff's
# tuned-vs-best-fixed gate), then reload the saved plan and prove the
# replay reproduces the autotuned run bit-identically — the artifacts
# must be byte-identical apart from the autotune config flag, which the
# diff gate sees as zero rows changed. Part of `make verify`.
tune-demo:
	$(eval TMP := $(shell mktemp -d))
	go run ./cmd/fftbench $(BENCH_FFT_FLAGS) -autotune -tuneplan $(TMP)/fft.tuneplan.json \
		-json $(TMP)/fft-tuned.json > /dev/null
	go run ./cmd/benchdiff BENCH_fft.json $(TMP)/fft-tuned.json
	go run ./cmd/fftbench $(BENCH_FFT_FLAGS) -tuneplan $(TMP)/fft.tuneplan.json \
		-json $(TMP)/fft-replay.json > /dev/null
	go run ./cmd/benchdiff $(TMP)/fft-tuned.json $(TMP)/fft-replay.json
	go run ./cmd/alltoallbench $(BENCH_A2A_FLAGS) -autotune -json $(TMP)/alltoall-tuned.json > /dev/null
	go run ./cmd/benchdiff BENCH_alltoall.json $(TMP)/alltoall-tuned.json
	rm -rf $(TMP)
	@echo "tune-demo: tuned artifacts gate green, plan replay reproduces the tuned run"

# The committed bench baselines. Small deterministic configurations —
# all times are virtual, so the artifacts are bit-identical across
# machines and regenerating them only changes the JSON when the
# simulated performance actually changed.
BENCH_FFT_FLAGS = -n 32 -sim 64 -gpus 12,24 -iters 1 -configs fp64,fp32,fp64-32,fp64-16
BENCH_A2A_FLAGS = -msg 65536 -iters 1 -gpus 12,24 -algos linear,osc,osc-comp

# bench regenerates the committed baselines in place. Run it (and commit
# the result) when a performance change is intentional.
bench:
	go run ./cmd/fftbench $(BENCH_FFT_FLAGS) -json BENCH_fft.json
	go run ./cmd/alltoallbench $(BENCH_A2A_FLAGS) -json BENCH_alltoall.json

# benchdiff regenerates the artifacts from the current tree into a temp
# directory and gates them against the committed baselines (nonzero exit
# on >10% regression or a vanished configuration).
benchdiff:
	$(eval TMP := $(shell mktemp -d))
	go run ./cmd/fftbench $(BENCH_FFT_FLAGS) -json $(TMP)/fft.json > /dev/null
	go run ./cmd/alltoallbench $(BENCH_A2A_FLAGS) -json $(TMP)/alltoall.json > /dev/null
	go run ./cmd/benchdiff BENCH_fft.json $(TMP)/fft.json
	go run ./cmd/benchdiff BENCH_alltoall.json $(TMP)/alltoall.json
	rm -rf $(TMP)

# The driver run behind each file of results/ that results-check
# regenerates, shared by results and results-check.
RESULTS_FIG2 = go run ./cmd/accuracy -fig2 -n 64 -fig2gpus 12
RESULTS_FIG3 = go run ./cmd/alltoallbench -gpus 6,12,24,48,96,192,384,768,1536 -iters 2
RESULTS_FIG4 = go run ./cmd/fftbench -n 64 -sim 1024 -gpus 12,24,48,96,192,384,768,1536 -iters 1
RESULTS_TABLE2 = go run ./cmd/accuracy -table2 -n 128 -gpus 12,24,48,96,192,384,768,1536

# results regenerates every table and figure of EXPERIMENTS.md into
# results/, one driver run per file. The full sweeps reach 1536 GPUs and
# take minutes and several GB; run one line by hand for a single file.
results:
	mkdir -p results
	go run ./cmd/precisions > results/table1.txt 2>&1
	$(RESULTS_FIG3) > results/fig3.txt 2>&1
	$(RESULTS_FIG4) > results/fig4.txt 2>&1
	$(RESULTS_TABLE2) > results/table2.txt 2>&1
	$(RESULTS_FIG2) > results/fig2.txt 2>&1
	go run ./cmd/ablation -gpus 96 > results/ablation.txt 2>&1

# results-check regenerates Fig. 2, Fig. 3, Fig. 4 and Table II at their
# full GPU lists (up to 1536) into a temp directory and cmps each against
# the committed file, so the paper's cells stay byte-identical unless a
# change means to move them. The four drivers run one after another in
# the foreground, in about 3.5 minutes on a 2-core box; not part of
# `make verify`. results/ablation.txt is left out: its 96-GPU chunks
# sweep was killed for running out of memory on a 7 GB box.
results-check:
	$(eval TMP := $(shell mktemp -d))
	$(RESULTS_FIG2) > $(TMP)/fig2.txt 2>&1
	$(RESULTS_FIG3) > $(TMP)/fig3.txt 2>&1
	$(RESULTS_FIG4) > $(TMP)/fig4.txt 2>&1
	$(RESULTS_TABLE2) > $(TMP)/table2.txt 2>&1
	cmp results/fig2.txt $(TMP)/fig2.txt
	cmp results/fig3.txt $(TMP)/fig3.txt
	cmp results/fig4.txt $(TMP)/fig4.txt
	cmp results/table2.txt $(TMP)/table2.txt
	rm -rf $(TMP)
	@echo "results-check: fig2, fig3, fig4 and table2 regenerate byte-identical"

clean:
	rm -f trace-demo.json
