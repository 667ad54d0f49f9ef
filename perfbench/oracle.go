package main

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// oracle holds each query's expected rows, computed once before timing by
// the single-node planner over the generated tables in memory, in
// canonical order.
type oracle map[string][]types.Row

func buildOracle(c *cluster.Cluster, data *tpch.Data, tmp string) (oracle, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	prov := &plan.MemProvider{Cat: c.Catalog(), Rows: data.Tables()}
	queries := tpch.Queries()
	out := oracle{}
	for _, qid := range tpch.QueryIDs() {
		sel, err := sqlparse.ParseSelect(queries[qid])
		if err != nil {
			return nil, fmt.Errorf("oracle %s parse: %w", qid, err)
		}
		node, err := plan.Build(sel, c.Catalog())
		if err != nil {
			return nil, fmt.Errorf("oracle %s build: %w", qid, err)
		}
		op, err := plan.Execute(node, prov, exec.NewCtx(tmp, 0))
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", qid, err)
		}
		rows, err := drain(op)
		if err != nil {
			return nil, fmt.Errorf("oracle %s run: %w", qid, err)
		}
		out[qid] = canonical(rows)
	}
	return out, nil
}

func drain(op exec.Operator) ([]types.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var rows []types.Row
	for {
		r, ok, err := op.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, r)
	}
}

// canonical sorts a copy of rows by their exact columns first and their
// float columns after, so results compare as multisets (ties in ORDER BY
// keys may legally permute) and rows whose float sums differ in the last
// bits still line up.
func canonical(rows []types.Row) []types.Row {
	out := append([]types.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for _, floats := range []bool{false, true} {
			for k := range a {
				if isFloat(a[k], b[k]) != floats {
					continue
				}
				if c := types.Compare(a[k], b[k]); c != 0 {
					return c < 0
				}
			}
		}
		return false
	})
	return out
}

func isFloat(a, b types.Value) bool { return a.K == types.KindFloat || b.K == types.KindFloat }

// same reports whether two result values agree: numbers of which either
// is a float to a relative 1e-9 (nine significant digits), everything else
// exactly. Comparing formatted digits instead would fail a sum whose
// distributed and single-node summation orders land on either side of a
// rounding boundary.
func same(a, b types.Value) bool {
	if isFloat(a, b) && isNumber(a) && isNumber(b) {
		x, y := a.Float(), b.Float()
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return a.K == b.K && a.String() == b.String()
}

func isNumber(v types.Value) bool { return v.K == types.KindInt || v.K == types.KindFloat }

// check compares a distributed result with the expected rows.
func (o oracle) check(qid string, rows []types.Row) error {
	want := o[qid]
	if len(rows) != len(want) {
		return fmt.Errorf("%s: %d rows, reference has %d", qid, len(rows), len(want))
	}
	got := canonical(rows)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s row %d: %d columns, reference has %d", qid, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if !same(got[i][k], want[i][k]) {
				return fmt.Errorf("%s row %d: got %v, want %v", qid, i, got[i], want[i])
			}
		}
	}
	return nil
}
