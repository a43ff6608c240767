GO ?= go

.PHONY: all build test race vet fmt-check bench-module lint lint-sarif lint-baseline check cover fuzz-smoke bench bench-smoke bench-json bench-check bench-layers bench-backends bench-cloudload bench-armsrace bench-scale fleet-bench experiments clean

# The headline benchmarks tracked across PRs (BENCH_*.json at the repo root).
BENCH_PATTERN = BenchmarkFleetMigrationStorm|BenchmarkFigure5DetectNoNested|BenchmarkFigure6DetectNested

# The layer rows under the Fig. 4 migration workload (BENCH_LAYERS.json):
# the pre-copy pull and the vendor-image generator in mem, one pre-copy
# round in migrate. A fixed iteration count keeps every run the same work.
LAYER_PATTERN = ^BenchmarkPullDirty$$|^BenchmarkPreCopyRound$$|^BenchmarkGenerateFile$$
LAYER_BENCH = $(GO) test -run='^$$' -bench='$(LAYER_PATTERN)' -benchmem -benchtime=500x ./internal/mem ./internal/migrate

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail when a tracked Go file (bench/ and detlint's testdata included) is
# not gofmt-formatted, or does not parse.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')) || exit 1; \
	if [ -n "$$out" ]; then printf 'not gofmt-formatted:\n%s\n' "$$out"; exit 1; fi

# bench/ is a module of its own, so the ./... patterns above never reach
# it; vet and test it against the current facade.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Determinism lint: the ten detlint rules (five per-package, the
# call-graph wallclock/horizon/deadcode passes, and seedflow/hotpath/
# errwrap) over the whole module. Exits non-zero on any unjustified,
# non-baselined finding, so an internal/ function only tests reach fails
# it too; the machine-readable report lands in .build/detlint.json and
# is uploaded as a CI artifact.
lint:
	@mkdir -p .build
	$(GO) run ./cmd/detlint -out .build/detlint.json ./...

# Emit the SARIF report for code-scanning upload.
lint-sarif:
	@mkdir -p .build
	$(GO) run ./cmd/detlint -format sarif -out .build/detlint.sarif ./...

# Grandfather the current findings: rewrite .detlint-baseline.json so
# existing findings stay visible (and auditable) but stop failing CI.
# New findings after this point still fail.
lint-baseline:
	$(GO) run ./cmd/detlint -write-baseline ./...

check: fmt-check build vet bench-module lint race

cover:
	@mkdir -p .build
	$(GO) test -coverprofile=.build/coverage.out ./...
	$(GO) tool cover -func=.build/coverage.out | tail -1

# Short fuzz pass over every fuzz target; a crasher fails the build.
# TestFuzzSmokeListsEveryTarget fails when a Fuzz function is missing here.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzMonitorDispatch$$' -fuzztime=$(FUZZTIME) ./internal/qemu
	$(GO) test -run='^$$' -fuzz='^FuzzTelemetryKey$$' -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzBenchJSONParse$$' -fuzztime=$(FUZZTIME) ./cmd/benchjson
	$(GO) test -run='^$$' -fuzz='^FuzzControlPlaneRequest$$' -fuzztime=$(FUZZTIME) ./internal/controlplane
	$(GO) test -run='^$$' -fuzz='^FuzzStrategySpec$$' -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzAllowDirective$$' -fuzztime=$(FUZZTIME) ./cmd/detlint
	$(GO) test -run='^$$' -fuzz='^FuzzDetlintFindingJSON$$' -fuzztime=$(FUZZTIME) ./cmd/detlint
	$(GO) test -run='^$$' -fuzz='^FuzzScanMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/ksm
	$(GO) test -run='^$$' -fuzz='^FuzzCandTableMatchesMap$$' -fuzztime=$(FUZZTIME) ./internal/ksm
	$(GO) test -run='^$$' -fuzz='^FuzzSpaceOps$$' -fuzztime=$(FUZZTIME) ./internal/mem
	$(GO) test -run='^$$' -fuzz='^FuzzRandMatchesMathRand$$' -fuzztime=$(FUZZTIME) ./internal/sim

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark in every package: catches benchmarks
# that no longer compile or panic, without paying for real measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

fleet-bench:
	$(GO) test -run='^$$' -bench=BenchmarkFleetMigrationStorm -benchmem .

# Headline benchmarks as structured JSON (cmd/benchjson). Pass
# BASELINE=BENCH_PRn.json to embed before/after rows and speedups.
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) -out BENCH.json
	@echo wrote BENCH.json

# The Fig. 5/6 detection sweeps on every registered hypervisor backend
# (one sub-benchmark per backend × figure) as structured JSON: each
# backend's t0/t1/t2 timing signature lands in BENCH_BACKENDS.json.
bench-backends:
	$(GO) test -run='^$$' -bench='^BenchmarkBackendDetection$$' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_BACKENDS.json
	@echo wrote BENCH_BACKENDS.json

# The million-op control-plane load run as structured JSON: p99 job
# latency and the admission-reject rate land in BENCH_CLOUDLOAD.json.
bench-cloudload:
	$(GO) test -run='^$$' -bench='^BenchmarkCloudLoad$$' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_CLOUDLOAD.json
	@echo wrote BENCH_CLOUDLOAD.json

# The sharded-world scaling run as structured JSON: per-host step cost
# at 8/128/1024 hosts (the ≥0.8x efficiency claim) and the O(1)
# template-fork cost at 64MB-1GB guest images land in BENCH_SCALE.json.
# Committed, not gitignored: the scaling curve is a tracked artefact.
bench-scale:
	$(GO) test -run='^$$' -bench='^BenchmarkShardScale$$|^BenchmarkSpawnFrom$$' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_SCALE.json
	@echo wrote BENCH_SCALE.json

# The strategy × detector × backend coverage matrix as structured JSON:
# the overall catch rate and the count of dedup-evading strategies the
# invariant detector recovers land in BENCH_ARMSRACE.json.
bench-armsrace:
	$(GO) test -run='^$$' -bench='^BenchmarkArmsRaceMatrix$$' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_ARMSRACE.json
	@echo wrote BENCH_ARMSRACE.json

# The layer rows as structured JSON. Pass BASELINE=<benchjson report> to
# embed before/after rows; the committed BENCH_LAYERS.json carries the
# previous commit's rows from the same machine as its baseline.
bench-layers:
	$(LAYER_BENCH) | $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) -out BENCH_LAYERS.json
	@echo wrote BENCH_LAYERS.json

# Re-run the headline and layer benchmarks and fail if any regressed
# against its committed rows, using the same parser that produced them.
# The threshold is wide because wall-clock ns/op swings ±25% with host
# load; the gate is meant to catch structural regressions (losing the
# recorded 1.8-4x wins), not scheduler noise. Use `-threshold 10` by hand
# on a quiet machine for a tight check.
bench-check:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -check BENCH_PR4.json -threshold 50
	$(LAYER_BENCH) | $(GO) run ./cmd/benchjson -check BENCH_LAYERS.json -threshold 50

experiments:
	$(GO) run ./cmd/experiments -scale quick

clean:
	rm -rf .build BENCH.json BENCH_BACKENDS.json BENCH_CLOUDLOAD.json BENCH_ARMSRACE.json
