package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/srv"
	"repro/internal/tpch"
	"repro/internal/types"
)

// spec is one workload. Every workload runs 4 workers with the paper's
// hrdbms profile and never uses more client goroutines than the 2 cores
// of the host it was sized on.
type spec struct {
	name string
	sf   float64
	// readers is the number of closed-loop sessions running the 21-query
	// mix; reader i starts its pass at query i*21/readers so sessions do
	// not run in lockstep.
	readers int
	// direct sends reads straight to the cluster (a power run) instead of
	// through srv sessions and admission.
	direct bool
	// writeTxns is the fixed transaction count of a writer session running
	// beside the readers, due evenly over the window. It is fixed because
	// every 2PC transaction leaks its mailboxes (about 230 KB of live heap
	// at the commit this benchmark was written against), so a fixed count
	// leaks the same volume on every run. 0 means the timed phase is
	// read-only.
	writeTxns int
}

// The workloads; README.md gives the reason for each.
var specs = []spec{
	{name: "tpch-stream", sf: 0.01, readers: 1, direct: true},
	{name: "tpch-serve", sf: 0.001, readers: 2},
	{name: "mixed-writes", sf: 0.001, readers: 1, writeTxns: pacedWrites},
}

const (
	// setups is how many times set-up is repeated to report its median.
	setups = 5
	// pacedWrites transactions are due evenly over the measured window of
	// mixed-writes.
	pacedWrites = 2000
	// rowsPerWrite rows per INSERT, one on each worker, so every
	// transaction commits through 2PC across the whole cluster.
	rowsPerWrite = 4
	numWorkers   = 4
	pageSize     = 16 * 1024
	writeTable   = "bench_writes"
)

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// bench is one run of one workload.
type bench struct {
	spec spec
	seed int64
	dir  string
	data *tpch.Data
	c    *cluster.Cluster
	srv  *srv.Server
	ref  oracle
	tr   *tracer // set only during a traced phase

	// Write generation state, used by one writer goroutine at a time.
	writeDef *catalog.TableDef
	writeRNG *rand.Rand
	nextKey  int64
	nextTxn  int64

	ackedRows  atomic.Int64
	readsDone  atomic.Int64
	writesDone atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string
}

func (b *bench) fail(err error) {
	b.failed.Add(1)
	b.errMu.Lock()
	if len(b.errs) < 5 {
		b.errs = append(b.errs, err.Error())
	}
	b.errMu.Unlock()
}

// setupCluster starts a cluster, creates the TPC-H tables and the write
// table, and loads the generated data.
func setupCluster(dir string, data *tpch.Data) (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Config{
		NumWorkers: numWorkers,
		BaseDir:    dir,
		PageSize:   pageSize,
		Nmax:       4,
		Profile:    cluster.HRDBMSProfile(),
	})
	if err != nil {
		return nil, err
	}
	ddl := append(tpch.DDL(), fmt.Sprintf(
		"CREATE TABLE %s (w_key INT, w_txn INT, w_val INT) PARTITION BY HASH(w_key)", writeTable))
	for _, stmt := range ddl {
		if _, err := c.ExecSQL(stmt); err != nil {
			c.Close()
			return nil, fmt.Errorf("ddl: %w", err)
		}
	}
	tables := data.Tables()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := c.Load(n, tables[n]); err != nil {
			c.Close()
			return nil, fmt.Errorf("load %s: %w", n, err)
		}
	}
	return c, nil
}

// setup generates the data, times cluster set-up setups times
// (keeping the last cluster) and computes the reference results.
func (b *bench) setup() (setupTimes []float64, err error) {
	b.data = tpch.Generate(b.spec.sf, b.seed)
	for i := 0; i < setups; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("cluster%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := setupCluster(dir, b.data)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			if err := c.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		b.c = c
	}
	if b.ref, err = buildOracle(b.c, b.data, filepath.Join(b.dir, "oracle")); err != nil {
		return nil, err
	}
	if b.writeDef, err = b.c.Catalog().Table(writeTable); err != nil {
		return nil, err
	}
	b.writeRNG = rand.New(rand.NewSource(b.seed))
	b.srv = srv.New(b.c, srv.Config{}, b.c.Reg)
	return setupTimes, nil
}

func (b *bench) close() error {
	var err error
	if b.srv != nil {
		err = b.srv.Shutdown()
		b.srv = nil
	}
	if b.c != nil {
		if cerr := b.c.Close(); err == nil {
			err = cerr
		}
		b.c = nil
	}
	return err
}

// sample is one completed read.
type sample struct {
	qid       string
	lat, wait time.Duration
}

// tracedRun is the engine-side record of one traced query.
type tracedRun struct {
	metrics cluster.RunMetrics
	trace   obs.TraceSnapshot
}

// read runs one query of the mix and checks its rows against the oracle.
func (b *bench) read(sess *srv.Session, qid string) (sample, error) {
	sql := tpch.Queries()[qid]
	b.attempted.Add(1)
	tr := b.tr
	opID := tr.newOp()
	root := tr.begin("read "+qid, 0, opID)
	start := time.Now()
	var rows []types.Row
	var wait time.Duration
	var err error
	parent := root
	run := func(opts *cluster.QueryOptions) (*cluster.Result, error) {
		if tr == nil {
			return b.c.ExecSQLOpts(sql, opts)
		}
		return b.runTraced(sql, parent, opID)
	}
	if sess == nil {
		var res *cluster.Result
		if res, err = run(nil); err == nil {
			rows = res.Rows
		}
	} else {
		sp := tr.begin("srv.RunQuery", root, opID)
		parent = sp
		var res *cluster.Result
		res, wait, err = b.srv.RunQuery(sess, run)
		tr.end(sp)
		if err == nil {
			rows = res.Rows
		}
	}
	lat := time.Since(start)
	if err == nil {
		sp := tr.begin("oracle.check", root, opID)
		err = b.ref.check(qid, rows)
		tr.end(sp)
	}
	tr.end(root)
	if err != nil {
		b.fail(err)
		return sample{}, err
	}
	b.readsDone.Add(1)
	return sample{qid: qid, lat: lat, wait: wait}, nil
}

// runTraced is the traced read path: parse, plan and run as separate
// calls so each layer gets its own span, with the engine's operator trace
// kept beside them.
func (b *bench) runTraced(sql string, parent, opID int64) (*cluster.Result, error) {
	tr := b.tr
	sp := tr.begin("sqlparse.ParseSelect", parent, opID)
	sel, err := sqlparse.ParseSelect(sql)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cluster.Plan", parent, opID)
	node, err := b.c.Plan(sel)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cluster.RunTraced", parent, opID)
	rows, m, qt, err := b.c.RunTraced(node, sql)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.addRun(tracedRun{metrics: m, trace: qt.Snapshot()})
	return &cluster.Result{Rows: rows}, nil
}

// writeSQL builds the next INSERT: rowsPerWrite fresh keys, one hashing to
// each worker, so every key is unique and every worker takes part.
func (b *bench) writeSQL() (string, error) {
	txn := b.nextTxn
	b.nextTxn++
	vals := make([]string, numWorkers)
	for filled := 0; filled < numWorkers; {
		key := b.nextKey
		b.nextKey++
		val := b.writeRNG.Int63n(1 << 30)
		row := types.Row{types.NewInt(key), types.NewInt(txn), types.NewInt(val)}
		nodes, err := b.writeDef.NodeFor(row, numWorkers)
		if err != nil {
			return "", err
		}
		if n := nodes[0]; vals[n] == "" {
			vals[n] = fmt.Sprintf("(%d, %d, %d)", key, txn, val)
			filled++
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", writeTable, strings.Join(vals, ", ")), nil
}

// write runs one INSERT transaction through a srv session.
func (b *bench) write(sess *srv.Session) error {
	sql, err := b.writeSQL()
	if err != nil {
		return err
	}
	b.attempted.Add(1)
	tr := b.tr
	opID := tr.newOp()
	root := tr.begin("write", 0, opID)
	_, _, err = b.srv.RunQuery(sess, func(opts *cluster.QueryOptions) (*cluster.Result, error) {
		return b.c.ExecSQLOpts(sql, opts)
	})
	tr.end(root)
	if err != nil {
		b.fail(err)
		return err
	}
	b.ackedRows.Add(rowsPerWrite)
	b.writesDone.Add(1)
	return nil
}

// writer runs n write transactions on its own session, due evenly over
// pace. Each one's latency counts from its due time, so a stall also
// charges the writes queued behind it.
func (b *bench) writer(n int, pace time.Duration) (lats []time.Duration, wall time.Duration, err error) {
	sess, err := b.srv.Sessions().Open()
	if err != nil {
		return nil, 0, err
	}
	defer b.srv.Sessions().Close(sess)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(pace * time.Duration(i) / time.Duration(n))
		time.Sleep(time.Until(due))
		if err := b.write(sess); err == nil {
			lats = append(lats, time.Since(due))
		}
	}
	return lats, time.Since(start), nil
}

// snapshot is the set of cumulative counters read at a phase boundary.
type snapshot struct {
	at  time.Time
	cpu time.Duration
	rt  runtimeCounters
	buf buffer.Stats
	reg map[string]float64
}

func (b *bench) snapshot() snapshot {
	s := snapshot{at: time.Now(), cpu: procCPU(), rt: readRuntime(), reg: map[string]float64{}}
	for _, w := range b.c.Workers {
		st := w.Store.Buf.Stats()
		s.buf.Hits += st.Hits
		s.buf.Misses += st.Misses
		s.buf.Evictions += st.Evictions
		s.buf.Writes += st.Writes
	}
	for _, m := range b.c.Reg.Snapshot() {
		s.reg[m.Name] = m.Value
	}
	return s
}

// phase is one measured window.
type phase struct {
	wall      time.Duration
	reads     []sample
	passes    []time.Duration // complete passes over the mix
	writes    []time.Duration
	writeWall time.Duration
	// windows split the phase at reader 0's pass boundaries, so a rate
	// can be reported as a median that a short stall of the host does
	// not move.
	windows       []window
	before, after snapshot
	heapBefore    float64
	heapAfter     float64
}

// window is one sub-window of a phase: its length, the process CPU spent
// and the reads and writes completed in it.
type window struct {
	wall, cpu     time.Duration
	reads, writes int64
}

func (p *phase) ops() int { return len(p.reads) + len(p.writes) }

// mark is a point on a phase's timeline.
type mark struct {
	at            time.Time
	cpu           time.Duration
	reads, writes int64
}

func (b *bench) mark() mark {
	return mark{at: time.Now(), cpu: procCPU(), reads: b.readsDone.Load(), writes: b.writesDone.Load()}
}

// readLoop runs whole passes over the mix on one session until the
// deadline has passed and stop reports true (or, with onePass, exactly one
// pass), then returns its samples and pass times. Whole passes keep every
// query's share of the samples equal. A non-nil marks records a mark at
// the start and after every pass.
func (b *bench) readLoop(reader int, deadline time.Time, stop func() bool, onePass bool, marks *[]mark) ([]sample, []time.Duration, error) {
	var sess *srv.Session
	if !b.spec.direct {
		var err error
		if sess, err = b.srv.Sessions().Open(); err != nil {
			return nil, nil, err
		}
		defer b.srv.Sessions().Close(sess)
	}
	ids := tpch.QueryIDs()
	offset := reader * len(ids) / b.spec.readers
	var samples []sample
	var passes []time.Duration
	if marks != nil {
		*marks = append(*marks, b.mark())
	}
	for {
		passStart := time.Now()
		for j := range ids {
			if s, err := b.read(sess, ids[(offset+j)%len(ids)]); err == nil {
				samples = append(samples, s)
			}
		}
		passes = append(passes, time.Since(passStart))
		if marks != nil {
			*marks = append(*marks, b.mark())
		}
		if onePass || (!time.Now().Before(deadline) && stop()) {
			return samples, passes, nil
		}
	}
}

// warmup runs one untimed pass per reader so caches fill and lazy set-up
// finishes before timing.
func (b *bench) warmup() error {
	_, err := b.runPhase(0, 0, nil)
	return err
}

// runPhase runs the readers for dur (and, with writeTxns > 0, a writer of
// that many transactions beside them; the window then lasts until the
// writer is done as well). dur 0 runs exactly one pass per reader. A
// non-nil tr traces every operation of the phase.
func (b *bench) runPhase(dur time.Duration, writeTxns int, tr *tracer) (*phase, error) {
	b.tr = tr
	defer func() { b.tr = nil }()
	p := &phase{heapBefore: liveHeapMB()}
	p.before = b.snapshot()
	deadline := p.before.at.Add(dur)
	var writerDone atomic.Bool
	writerDone.Store(writeTxns == 0)
	stop := writerDone.Load
	var wg sync.WaitGroup
	errs := make([]error, b.spec.readers+1)
	reads := make([][]sample, b.spec.readers)
	passes := make([][]time.Duration, b.spec.readers)
	var marks []mark
	for i := 0; i < b.spec.readers; i++ {
		m := &marks
		if i > 0 {
			m = nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads[i], passes[i], errs[i] = b.readLoop(i, deadline, stop, dur == 0, m)
		}()
	}
	if writeTxns > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writerDone.Store(true)
			p.writes, p.writeWall, errs[b.spec.readers] = b.writer(writeTxns, dur)
		}()
	}
	wg.Wait()
	p.after = b.snapshot()
	p.wall = p.after.at.Sub(p.before.at)
	p.heapAfter = liveHeapMB()
	for i := range reads {
		p.reads = append(p.reads, reads[i]...)
		p.passes = append(p.passes, passes[i]...)
	}
	for i := 1; i < len(marks); i++ {
		a, z := marks[i-1], marks[i]
		p.windows = append(p.windows, window{
			wall: z.at.Sub(a.at), cpu: z.cpu - a.cpu, reads: z.reads - a.reads, writes: z.writes - a.writes,
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkWrites verifies that the write table holds exactly the
// acknowledged rows.
func (b *bench) checkWrites() {
	b.attempted.Add(1)
	res, err := b.c.ExecSQL("SELECT COUNT(*) FROM " + writeTable)
	if err != nil {
		b.fail(fmt.Errorf("count %s: %w", writeTable, err))
		return
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != b.ackedRows.Load() {
		b.fail(fmt.Errorf("%s holds %v rows, %d acknowledged", writeTable, res.Rows, b.ackedRows.Load()))
	}
}
