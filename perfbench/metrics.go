package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/tpch"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"query_geomean_ms", "ms"},
	{"qps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per engine layer. A
// layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"sqlparse.parse_us", "us"},
	{"opt.plan_us", "us"},
	{"buffer.fetches_per_pass", "count/pass"},
	{"buffer.miss_ratio", "ratio"},
	{"buffer.evictions", "count/pass"},
	{"buffer.disk_writes", "count/pass"},
	{"page.read_us", "us"},
	{"page.decode_us", "us"},
	{"page.decode_plain_us", "us"},
	{"page.unpack_us", "us"},
	{"page.read_allocs", "count/page"},
	{"page.decode_allocs", "count/page"},
	{"storage.pages_read", "count/pass"},
	{"skipcache.skip_ratio", "ratio"},
	{"exec.scan_self_ms", "ms/pass"},
	{"exec.filter_project_self_ms", "ms/pass"},
	{"exec.join_self_ms", "ms/pass"},
	{"exec.agg_self_ms", "ms/pass"},
	{"exec.sort_self_ms", "ms/pass"},
	{"exec.exchange_self_ms", "ms/pass"},
	{"exec.work_rows", "count/pass"},
	{"vec.typed_pages", "count/pass"},
	{"vec.boxed_pages", "count/pass"},
	{"network.bytes_per_query", "B"},
	{"network.messages_per_query", "count"},
	{"srv.queue_wait_p50_ms", "ms"},
	{"srv.queue_wait_p99_ms", "ms"},
	{"twopc.commits", "count"},
	{"twopc.writes_per_s", "1/s"},
	{"twopc.write_p50_ms", "ms"},
	{"twopc.write_p99_ms", "ms"},
	{"wal.flushes_per_write", "count"},
	{"wal.appends_per_write", "count"},
	{"twopc.heap_kb_per_write", "KB"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"cpu.util", "ratio"},
	{"trace.overhead_pct", "%"},
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// endToEndValues computes the user-visible metrics of the measured phase
// rp. Rates are medians over rp's windows.
func endToEndValues(setup []float64, rp *phase) map[string]float64 {
	byQuery := map[string][]float64{}
	var lats []float64
	for _, s := range rp.reads {
		byQuery[s.qid] = append(byQuery[s.qid], ms(s.lat))
		lats = append(lats, ms(s.lat))
	}
	var perQuery []float64
	for _, qid := range tpch.QueryIDs() {
		if l := byQuery[qid]; len(l) > 0 {
			perQuery = append(perQuery, median(l))
		}
	}
	var qps, cpuPerOp []float64
	for _, w := range rp.windows {
		qps = append(qps, ratio(float64(w.reads), w.wall.Seconds()))
		cpuPerOp = append(cpuPerOp, ratio(ms(w.cpu), float64(w.reads+w.writes)))
	}
	return map[string]float64{
		"setup_s":          median(setup),
		"suite_s":          median(seconds(rp.passes)),
		"query_geomean_ms": geomean(perQuery),
		"qps":              median(qps),
		"read_p50_ms":      percentile(lats, 50),
		"read_p99_ms":      percentile(lats, 99),
		"cpu_ms_per_op":    median(cpuPerOp),
		"heap_live_mb":     rp.heapAfter,
	}
}

// passCount is the number of 21-query passes a phase's reads amount to.
func passCount(p *phase) float64 {
	return float64(len(p.reads)) / float64(len(tpch.QueryIDs()))
}

// execGroup maps an engine span label to the exec metric it counts in.
func execGroup(op string) string {
	switch {
	case strings.HasPrefix(op, "Scan"), strings.HasPrefix(op, "IndexScan"):
		return "exec.scan_self_ms"
	case strings.HasPrefix(op, "Filter"), strings.HasPrefix(op, "Project"):
		return "exec.filter_project_self_ms"
	case strings.Contains(op, "Join"):
		return "exec.join_self_ms"
	case strings.HasPrefix(op, "HashAgg"), strings.HasPrefix(op, "Distinct"):
		return "exec.agg_self_ms"
	case strings.HasPrefix(op, "Sort"), strings.HasPrefix(op, "TopK"):
		return "exec.sort_self_ms"
	case strings.HasPrefix(op, "Shuffle"), strings.HasPrefix(op, "Send"),
		strings.HasPrefix(op, "Gather"), strings.HasPrefix(op, "Broadcast"),
		strings.HasPrefix(op, "Tree"):
		return "exec.exchange_self_ms"
	}
	return ""
}

// perLayerValues computes the layer metrics. a is the untraced half of the
// traced run (counters, runtime and writes), t the traced half (spans) and
// pg the page probe.
func perLayerValues(a, t *phase, tr *tracer, pg pageStats) map[string]float64 {
	v := map[string]float64{}
	self, count := tr.selfTimes()
	us := func(name string) float64 {
		return ratio(float64(self[name].Microseconds()), float64(count[name]))
	}
	v["sqlparse.parse_us"] = us("sqlparse.ParseSelect")
	v["opt.plan_us"] = us("cluster.Plan")

	pa := passCount(a)
	fetches := float64(a.after.buf.Hits - a.before.buf.Hits + a.after.buf.Misses - a.before.buf.Misses)
	v["buffer.fetches_per_pass"] = ratio(fetches, pa)
	v["buffer.miss_ratio"] = ratio(float64(a.after.buf.Misses-a.before.buf.Misses), fetches)
	v["buffer.evictions"] = ratio(float64(a.after.buf.Evictions-a.before.buf.Evictions), pa)
	v["buffer.disk_writes"] = ratio(float64(a.after.buf.Writes-a.before.buf.Writes), pa)

	v["page.read_us"] = pg.readUS
	v["page.decode_us"] = pg.decodeUS
	v["page.decode_plain_us"] = pg.plainUS
	v["page.unpack_us"] = pg.decodeUS - pg.plainUS
	v["page.read_allocs"] = pg.readAllocs
	v["page.decode_allocs"] = pg.decodeAllocs

	// Engine spans: self time is a span's wall minus its children's wall.
	// Scan feeds run on background goroutines, so scan self time
	// undercounts the decode work they do.
	pt := passCount(t)
	var pagesRead, skipped, rowsOut, typed, boxed, netBytes, netMsgs float64
	groups := map[string]float64{}
	for _, r := range tr.runs {
		childWall := map[int64]int64{}
		for _, s := range r.trace.Spans {
			childWall[s.Parent] += s.WallNS
		}
		for _, s := range r.trace.Spans {
			pagesRead += float64(s.PagesRead)
			skipped += float64(s.PagesSkipped)
			rowsOut += float64(s.RowsOut)
			typed += float64(s.DecodeTyped)
			boxed += float64(s.DecodeBoxed)
			if g := execGroup(s.Op); g != "" {
				if selfNS := s.WallNS - childWall[s.ID]; selfNS > 0 {
					groups[g] += float64(selfNS) / 1e6
				}
			}
		}
		netBytes += float64(r.metrics.NetBytes)
		netMsgs += float64(r.metrics.NetMessages)
	}
	v["storage.pages_read"] = ratio(pagesRead, pt)
	v["skipcache.skip_ratio"] = ratio(skipped, pagesRead+skipped)
	for _, g := range []string{"exec.scan_self_ms", "exec.filter_project_self_ms", "exec.join_self_ms",
		"exec.agg_self_ms", "exec.sort_self_ms", "exec.exchange_self_ms"} {
		v[g] = ratio(groups[g], pt)
	}
	v["exec.work_rows"] = ratio(rowsOut, pt)
	v["vec.typed_pages"] = ratio(typed, pt)
	v["vec.boxed_pages"] = ratio(boxed, pt)
	v["network.bytes_per_query"] = ratio(netBytes, float64(len(tr.runs)))
	v["network.messages_per_query"] = ratio(netMsgs, float64(len(tr.runs)))

	var waits []float64
	for _, s := range a.reads {
		waits = append(waits, ms(s.wait))
	}
	v["srv.queue_wait_p50_ms"] = percentile(waits, 50)
	v["srv.queue_wait_p99_ms"] = percentile(waits, 99)

	// Writes run only on mixed-writes; elsewhere these stay 0.
	nw := float64(len(a.writes))
	writes := millis(a.writes)
	v["twopc.commits"] = a.after.reg["twopc.commits_total"] - a.before.reg["twopc.commits_total"]
	v["twopc.writes_per_s"] = ratio(nw, a.writeWall.Seconds())
	v["twopc.write_p50_ms"] = percentile(writes, 50)
	v["twopc.write_p99_ms"] = percentile(writes, 99)
	v["wal.flushes_per_write"] = ratio(a.after.reg["wal.flushes_total"]-a.before.reg["wal.flushes_total"], nw)
	v["wal.appends_per_write"] = ratio(a.after.reg["wal.appends_total"]-a.before.reg["wal.appends_total"], nw)
	v["twopc.heap_kb_per_write"] = ratio((a.heapAfter-a.heapBefore)*1024, nw)
	cpu := (a.after.cpu - a.before.cpu).Seconds()
	ops := float64(a.ops())
	v["gc.cpu_frac"] = ratio(a.after.rt.gcCPU-a.before.rt.gcCPU, cpu)
	v["gc.cycles_per_op"] = ratio(a.after.rt.gcCycles-a.before.rt.gcCycles, ops)
	v["runtime.alloc_mb_per_op"] = ratio((a.after.rt.allocBytes-a.before.rt.allocBytes)/(1<<20), ops)
	v["cpu.util"] = ratio(cpu, a.wall.Seconds()*float64(runtime.NumCPU()))
	v["trace.overhead_pct"] = 100 * (ratio(ratio(float64(len(a.reads)), a.wall.Seconds()),
		ratio(float64(len(t.reads)), t.wall.Seconds())) - 1)
	return v
}
