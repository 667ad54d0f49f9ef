// Command perfbench is the engine's end-to-end benchmark. It runs one
// TPC-H workload on an in-process 4-worker cluster, checks every query
// result against a single-node reference, and prints the workload's
// metrics; with -trace 1 it prints the per-layer breakdown instead. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type host struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: tpch-stream, tpch-serve or mixed-writes")
		seed     = flag.Int64("seed", 1, "data generator and write-value seed")
		secs     = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for cluster data and trace files")
	)
	flag.Parse()
	sp, ok := findSpec(*workload)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.name
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s [--seed n] [--seconds s] [--trace 0|1]\n",
			strings.Join(names, "|"))
		os.Exit(2)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	h := host{
		Workload: sp.name, Seed: *seed, Seconds: *secs, Trace: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), CPU: cpuModel(), Commit: commit,
	}
	hj, _ := json.Marshal(h) // plain struct: cannot fail
	fmt.Printf("host %s\n", hj)

	res, err := run(sp, h, *out, time.Duration(*secs*float64(time.Second)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(rj))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(sp spec, h host, out string, dur time.Duration) (*result, error) {
	dir := filepath.Join(out, fmt.Sprintf("run-%s-%d", sp.name, os.Getpid()))
	defer os.RemoveAll(dir)
	b := &bench{spec: sp, seed: h.Seed, dir: dir}
	defer b.close()

	setupTimes, err := b.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := b.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// The measured window; a traced run splits it into an untraced half a
	// and a traced half t.
	var a, t *phase
	var tr *tracer
	if !h.Trace {
		a, err = b.runPhase(dur, sp.writeTxns, nil)
	} else if a, err = b.runPhase(dur/2, sp.writeTxns/2, nil); err == nil {
		tr = newTracer()
		t, err = b.runPhase(dur/2, sp.writeTxns/2, tr)
	}
	if err != nil {
		return nil, err
	}
	b.checkWrites()

	var defs []metricDef
	var values map[string]float64
	var notes map[string]string
	if !h.Trace {
		defs, values = endToEnd, endToEndValues(setupTimes, a)
		notes = map[string]string{
			"setup_s":          fmt.Sprintf("median of %d set-ups", len(setupTimes)),
			"suite_s":          fmt.Sprintf("median of %d passes: %.3v", len(a.passes), seconds(a.passes)),
			"query_geomean_ms": fmt.Sprintf("%d reads", len(a.reads)),
			"read_p50_ms":      fmt.Sprintf("n=%d", len(a.reads)),
			"read_p99_ms":      fmt.Sprintf("n=%d", len(a.reads)),
		}
	} else {
		pg, err := b.closeAndProbePages()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", sp.name, h.Seed))
		if err := writeTrace(path, h, tr); err != nil {
			return nil, err
		}
		fmt.Printf("trace written to %s (%d spans, %d engine traces)\n", path, len(tr.spans), len(tr.runs))
		defs, values = perLayer, perLayerValues(a, t, tr, pg)
		notes = map[string]string{
			"page.read_us":       fmt.Sprintf("%d stored pages", pg.pages),
			"exec.scan_self_ms":  "undercounts: scan feeds run on background goroutines",
			"twopc.write_p50_ms": fmt.Sprintf("n=%d", len(a.writes)),
			"twopc.write_p99_ms": fmt.Sprintf("n=%d", len(a.writes)),
		}
	}

	res := &result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.4f %-10s %s\n", d.name, v, d.unit, notes[d.name])
	}
	fmt.Printf("%-28s %14.4f %-10s %d of %d operations\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	for _, e := range b.errs {
		fmt.Fprintf(os.Stderr, "failure: %s\n", e)
	}
	return res, nil
}

// writeTrace writes the traced run's spans: the benchmark's own spans
// around each call into a layer and the engine's operator spans per query.
func writeTrace(path string, h host, tr *tracer) error {
	type query struct {
		SQL      string `json:"sql"`
		WallNS   int64  `json:"wall_ns"`
		NetBytes int64  `json:"net_bytes"`
		NetMsgs  int64  `json:"net_msgs"`
		Spans    any    `json:"spans"`
	}
	doc := struct {
		Host    host    `json:"host"`
		Spans   []span  `json:"spans"`
		Queries []query `json:"queries"`
	}{Host: h, Spans: tr.spans}
	for _, r := range tr.runs {
		sql, _, _ := strings.Cut(strings.TrimSpace(r.trace.SQL), "\n")
		doc.Queries = append(doc.Queries, query{
			SQL: sql, WallNS: r.trace.WallNS,
			NetBytes: r.metrics.NetBytes, NetMsgs: r.metrics.NetMessages, Spans: r.trace.Spans,
		})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
