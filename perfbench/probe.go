package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/page"
	"repro/internal/types"
	"repro/internal/vec"
)

// probeMinTime is how long each probe stage repeats over the page list.
const probeMinTime = 300 * time.Millisecond

// pageStats is the read-path probe over a workload's stored .col pages:
// per-page time and allocations of ReadPage (file read + LZ4), typed
// decode of the stored page, and typed decode of the same values on a
// never-sealed page.
type pageStats struct {
	pages                     int
	readUS, decodeUS, plainUS float64
	readAllocs, decodeAllocs  float64
}

type storedPage struct {
	file *page.File
	num  uint32
	kind types.Kind
	col  page.ColumnPage // the page as ReadPage returned it
}

// slabs are the decode destinations, reused across pages as a scan reuses
// its batch.
type slabs struct {
	i     []int64
	f     []float64
	codes []int32
	nulls vec.Bitmap
	dict  *vec.Dict
}

func (s *slabs) decode(cp page.ColumnPage, kind types.Kind) error {
	s.nulls.Truncate(0)
	var err error
	switch kind {
	case types.KindFloat:
		s.f, err = cp.DecodeFloat64s(s.f[:0], &s.nulls)
	case types.KindString:
		s.codes, err = cp.DecodeStrings(s.dict, s.codes[:0], &s.nulls)
	default:
		s.i, err = cp.DecodeInt64s(kind, s.i[:0], &s.nulls)
	}
	return err
}

// values boxes the last decoded page back into values.
func (s *slabs) values(kind types.Kind) []types.Value {
	var n int
	switch kind {
	case types.KindFloat:
		n = len(s.f)
	case types.KindString:
		n = len(s.codes)
	default:
		n = len(s.i)
	}
	out := make([]types.Value, n)
	for k := range out {
		switch {
		case s.nulls.Get(k):
			out[k] = types.Null
		case kind == types.KindFloat:
			out[k] = types.NewFloat(s.f[k])
		case kind == types.KindString:
			out[k] = types.NewString(s.dict.Str(s.codes[k]))
		case kind == types.KindBool:
			out[k] = types.NewBool(s.i[k] != 0)
		case kind == types.KindDate:
			out[k] = types.NewDate(s.i[k])
		default:
			out[k] = types.NewInt(s.i[k])
		}
	}
	return out
}

// repeat runs fn over every page until probeMinTime has passed and reports
// time and heap allocations per page.
func repeat(n int, fn func(i int) error) (us, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	reps := 0
	for reps == 0 || time.Since(start) < probeMinTime {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, 0, err
			}
		}
		reps++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	per := float64(reps * n)
	return float64(elapsed) / 1e3 / per, float64(after.Mallocs-before.Mallocs) / per, nil
}

// closeAndProbePages closes the cluster, which writes every buffered page
// to its .col file, and probes the stored lineitem and orders pages.
func (b *bench) closeAndProbePages() (pageStats, error) {
	schemas := map[string]types.Schema{}
	for _, name := range []string{"lineitem", "orders"} {
		def, err := b.c.Catalog().Table(name)
		if err != nil {
			return pageStats{}, err
		}
		schemas[name] = def.Schema
	}
	dir := b.c.Cfg.BaseDir
	if err := b.close(); err != nil {
		return pageStats{}, err
	}
	return probePages(dir, schemas)
}

// probePages opens every .col file under dir (written by a closed
// cluster) and measures the read path stage by stage. schemas maps a
// lower-case table name to its schema; page k of a file holds column
// k mod width, because a page set is width consecutive pages.
func probePages(dir string, schemas map[string]types.Schema) (pageStats, error) {
	var st pageStats
	paths, err := filepath.Glob(filepath.Join(dir, "node*", "disk*", "*.col"))
	if err != nil {
		return st, err
	}
	var pages []storedPage
	for _, path := range paths {
		table, _, _ := strings.Cut(filepath.Base(path), ".")
		sch, ok := schemas[table]
		if !ok {
			continue
		}
		f, err := page.OpenFile(path, pageSize, true)
		if err != nil {
			return st, err
		}
		defer f.Close()
		for num := uint32(0); num < f.NumPages(); num++ {
			buf, err := f.ReadPage(num)
			if err != nil {
				return st, err
			}
			cp, err := page.AsColumnPage(buf)
			if err != nil || cp.NumValues() == 0 {
				continue // a slot the fragment never wrote
			}
			kind := sch.Cols[int(num)%len(sch.Cols)].Kind
			pages = append(pages, storedPage{file: f, num: num, kind: kind, col: cp})
		}
	}
	if len(pages) == 0 {
		return st, fmt.Errorf("page probe: no column pages under %s", dir)
	}
	st.pages = len(pages)

	st.readUS, st.readAllocs, err = repeat(len(pages), func(i int) error {
		_, err := pages[i].file.ReadPage(pages[i].num)
		return err
	})
	if err != nil {
		return st, fmt.Errorf("page probe read: %w", err)
	}

	s := &slabs{dict: vec.NewDict()}
	plain := make([]page.ColumnPage, len(pages))
	for i, p := range pages {
		if err := s.decode(p.col, p.kind); err != nil {
			return st, fmt.Errorf("page probe decode %s p%d: %w", p.file.Path(), p.num, err)
		}
		plain[i] = page.InitColumnPage(make([]byte, pageSize))
		for _, v := range s.values(p.kind) {
			if !plain[i].Append(v) {
				return st, fmt.Errorf("page probe: values of %s p%d do not fit a plain page", p.file.Path(), p.num)
			}
		}
	}
	st.decodeUS, st.decodeAllocs, err = repeat(len(pages), func(i int) error {
		return s.decode(pages[i].col, pages[i].kind)
	})
	if err != nil {
		return st, fmt.Errorf("page probe decode: %w", err)
	}
	st.plainUS, _, err = repeat(len(pages), func(i int) error {
		return s.decode(plain[i], pages[i].kind)
	})
	if err != nil {
		return st, fmt.Errorf("page probe plain decode: %w", err)
	}
	return st, nil
}
