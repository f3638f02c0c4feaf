// Command vgasperf is the repository's benchmark. It drives the runtime
// through its public package APIs on one of three workloads and prints
// every metric by name and unit, then one JSON result line:
//
//	vgasperf --workload go-oneside|des-storm|des-tenants --seed N --seconds S --trace 0|1
//
// --trace 0 is the plain run and reports the end-to-end metrics.
// --trace 1 runs the plain pass and a traced pass (Config.Metrics on, a
// trace ring attached, benchmark-side spans and timers) and reports the
// per-layer metrics, including the traced/plain throughput ratio. The
// spans are written as Chrome trace-event JSON. The run exits non-zero
// when any correctness check fails. README.md maps every metric to the
// end-to-end figure and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // small sizes, for the package tests
	spans    string // span file path ("" = none)
	perturb  string // check to feed a wrong expected value (tests)
	refPath  string // reference-kernel binary
	root     string // repository root, for the commit and source hash
}

// shape is what the isolated layer calls are sized from: the workload's
// own parcel shape and block set.
type shape struct {
	parcel *parcel.Parcel
	blocks []gas.BlockID
}

// roundResult is one round: set-up, timed section, checks, tear-down.
type roundResult struct {
	v                 vals
	attempted, failed int64
	fp                uint64 // simulated-behaviour fingerprint (DES only)
}

// pass is the shared state of one pass (plain or traced) of a workload.
type pass struct {
	cfg    *config
	traced bool
	sp     *spans  // nil on the plain pass
	ck     *checks // shared by both passes
	shape  *shape  // filled by the first round
	ref    *refKernel
	// The round's reference-kernel samples: CPU nanoseconds and events.
	refNs, refN float64
}

// sampleRef runs events steps of the reference kernel and adds them to
// the round's samples. runPass samples before and after every round; a
// round made of several long parts samples between them too, so the
// kernel follows the machine's speed through the round. The heap is
// collected afterwards, so the round does not pay for garbage made
// before it.
func (p *pass) sampleRef(events int) error {
	if p.cfg.quick {
		events >>= 5
	}
	ns, err := p.ref.nsPerEvent(events)
	if err != nil {
		return err
	}
	p.refNs += ns * float64(events)
	p.refN += float64(events)
	runtime.GC()
	return nil
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// des marks a simulated workload: its rounds must repeat the same
	// simulated behaviour exactly, which the fingerprint checks. A DES
	// workload runs with GOMAXPROCS=1, pinned to one CPU: the engine at
	// default Shards runs on one goroutine, and a second P would only add
	// GC-worker and idle spinning CPU time that depends on what else the
	// host runs.
	des   bool
	round func(p *pass) (roundResult, error)
}

// catalog lists the workloads; each one's file says why it was chosen.
var catalog = []workload{
	{"go-oneside", false, onesideRound},
	{"des-storm", true, stormRound},
	{"des-tenants", true, tenantsRound},
}

// procs is the GOMAXPROCS a workload runs with.
func (wl workload) procs() int {
	if wl.des {
		return 1
	}
	return runtime.NumCPU()
}

func findWorkload(name string) (workload, error) {
	for _, w := range catalog {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(catalog))
	for i, w := range catalog {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// passResult is a pass reduced over its rounds.
type passResult struct {
	v                 vals // per-metric median over rounds
	rounds            int
	attempted, failed int64
	fp                uint64
}

// runPass runs rounds until budget has elapsed (at least minRounds) and
// reduces them to medians. DES rounds must all share one fingerprint.
func runPass(wl workload, p *pass, budget time.Duration, minRounds int) (passResult, error) {
	var rounds []vals
	var out passResult
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < budget {
		p.refNs, p.refN = 0, 0
		if err := p.sampleRef(refEvents / 2); err != nil {
			return out, err
		}
		id := p.sp.begin("bench.round")
		r, err := wl.round(p)
		p.sp.end(id)
		if err != nil {
			return out, fmt.Errorf("%s round %d: %w", wl.name, len(rounds), err)
		}
		if err := p.sampleRef(refEvents / 2); err != nil {
			return out, err
		}
		ref := p.refNs / p.refN
		if wl.des {
			if len(rounds) == 0 {
				out.fp = r.fp
			}
			p.ck.same(wl.name+".fingerprint_repeats", r.fp, out.fp)
		}
		r.v["ref.ns_per_event"] = ref
		if c := r.v["ops_per_cpu_s"]; c > 0 && ref > 0 {
			r.v["cpu_cost_per_op"] = 1e9 / c / ref
		}
		rounds = append(rounds, r.v)
		out.attempted += r.attempted
		out.failed += r.failed
	}
	out.v = medianVals(rounds)
	out.rounds = len(rounds)
	return out, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
	// checked names every correctness check the run evaluated.
	checked map[string]bool
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation, writing the report and the JSON line to
// out. It returns the result and any correctness or run error.
func run(cfg config, out io.Writer) (result, error) {
	res := result{Metrics: map[string]metricJSON{}}
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return res, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs()))
	pinned := -1
	if wl.des {
		cpu, unpin, err := pinOneCPU()
		if err != nil {
			return res, err
		}
		defer unpin()
		pinned = cpu
	}
	ref, err := startRef(cfg.refPath)
	if err != nil {
		return res, err
	}
	defer ref.close()
	printHost(out, cfg, pinned)
	ck := &checks{perturb: cfg.perturb}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minRounds := 3
	if cfg.quick {
		minRounds = 1
	}

	plainBudget := budget
	if cfg.trace {
		plainBudget = budget * 4 / 10
	}
	plainPass := &pass{cfg: &cfg, ck: ck, ref: ref}
	plain, err := runPass(wl, plainPass, plainBudget, minRounds)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "pass plain rounds=%d attempted=%d failed=%d\n", plain.rounds, plain.attempted, plain.failed)
	report := vals{}
	for k, v := range plain.v {
		report[k] = v
	}
	report["fail_ratio"] = ratio(float64(plain.failed), float64(plain.attempted))
	attempted, failed := plain.attempted, plain.failed

	var sp *spans
	if cfg.trace {
		sp = newSpans(runID(cfg))
		tp := &pass{cfg: &cfg, traced: true, sp: sp, ck: ck, shape: plainPass.shape, ref: ref}
		traced, err := runPass(wl, tp, budget*4/10, minRounds)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(out, "pass traced rounds=%d attempted=%d failed=%d\n", traced.rounds, traced.attempted, traced.failed)
		if wl.des {
			ck.same(wl.name+".fingerprint_traced", traced.fp, plain.fp)
		}
		// Figures the plain pass measures come from it; the traced pass
		// adds the ones that need instrumentation.
		for k, v := range traced.v {
			if _, ok := report[k]; !ok {
				report[k] = v
			}
		}
		report["obs.traced_overhead"] = ratio(traced.v["ops_per_s"], plain.v["ops_per_s"])
		for k, v := range isolatedLayers(sp, plainPass.shape, report["netsim.queue_depth_mean"], cfg.quick) {
			report[k] = v
		}
		attempted += traced.attempted
		failed += traced.failed
	}

	if wl.des {
		fmt.Fprintf(out, "fingerprint workload=%s seed=%d fp=%016x\n", wl.name, cfg.seed, plain.fp)
	}
	printMetrics(out, "e2e", e2eMetrics, report)
	if cfg.trace {
		printMetrics(out, "layer", layerMetrics, report)
	}
	fmt.Fprintf(out, "row workload=%s seed=%d trace=%v rounds=%d cpu_cost_per_op=%.3f ops_per_s=%.1f ops_per_cpu_s=%.1f ref_ns_per_event=%.1f setup_s=%.4f heap_live_mb=%.2f\n",
		wl.name, cfg.seed, cfg.trace, plain.rounds, report["cpu_cost_per_op"], report["ops_per_s"], report["ops_per_cpu_s"],
		report["ref.ns_per_event"], report["setup_s"], report["heap_live_mb"])
	if sp != nil {
		sp.printSelfTimes(out)
		if cfg.spans != "" {
			if err := writeSpans(sp, cfg.spans); err != nil {
				return res, err
			}
			fmt.Fprintf(out, "spans file=%s count=%d\n", cfg.spans, len(sp.list))
		}
	}

	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricJSON{Value: report[d.name], Unit: d.unit}
	}
	res.Attempted, res.Failed = attempted, failed
	res.checked = ck.names
	cerr := ck.err()
	res.Correct = cerr == nil && failed == 0
	if cerr == nil && failed > 0 {
		cerr = fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(out, string(line))
	return res, cerr
}

// printMetrics prints one "metric" line per definition.
func printMetrics(out io.Writer, kind string, defs []metricDef, v vals) {
	for _, d := range defs {
		fmt.Fprintf(out, "metric kind=%s name=%s value=%.6g unit=%s\n", kind, d.name, v[d.name], d.unit)
	}
}

// printHost records the host facts every run is read against
// (pinned_cpu is -1 when the run is not pinned).
func printHost(out io.Writer, cfg config, pinnedCPU int) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d pinned_cpu=%d gogc=%s go=%s commit=%s src=%s seed=%d workload=%s seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), pinnedCPU, gogc, runtime.Version(), gitCommit(cfg.root), sourceHash(cfg.root),
		cfg.seed, cfg.workload, cfg.seconds, cfg.trace)
}

// runID is the id every span of one workload run shares.
func runID(cfg config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", cfg.workload, cfg.seed, time.Now().UnixNano())
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeSpans(sp *spans, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := sp.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout without .git reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref // detached HEAD holds the commit itself
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceHash hashes the repository's Go sources and module files, so a
// run identifies the code it measured even where there is no .git.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (filepath.Ext(path) == ".go" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func main() {
	cfg := config{root: ".", refPath: defaultRefPath()}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: go-oneside, des-storm or des-tenants")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = plain run (end-to-end metrics), 1 = plain + traced run (per-layer metrics)")
	flag.BoolVar(&cfg.quick, "quick", false, "small sizes (smoke run)")
	flag.StringVar(&cfg.refPath, "ref", cfg.refPath, "reference-kernel binary (built by run.sh next to vgasperf)")
	flag.StringVar(&cfg.spans, "spans", "", "span file for --trace 1 (default .bench_build/spans/<workload>.json)")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "vgasperf: --trace must be 0 or 1, got %d\n", traceFlag)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "vgasperf: --seconds must be positive, got %g\n", cfg.seconds)
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", cfg.workload+".json")
	}
	if _, err := findWorkload(cfg.workload); err != nil {
		fmt.Fprintf(os.Stderr, "vgasperf: %v\n", err)
		os.Exit(2)
	}
	if _, err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vgasperf: %v\n", err)
		os.Exit(1)
	}
}
