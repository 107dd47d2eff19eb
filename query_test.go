package tapejoin

import (
	"strings"
	"testing"
)

// buildTypedTables makes a small accounts/events pair through the
// public API.
func buildTypedTables(t *testing.T, sys *System) (*Table, *Table) {
	t.Helper()
	tapeA, err := sys.NewTape("acc", 64)
	if err != nil {
		t.Fatal(err)
	}
	tapeE, err := sys.NewTape("ev", 64)
	if err != nil {
		t.Fatal(err)
	}
	accounts, err := sys.CreateTable(tapeA, TableSpec{
		Name: "accounts", SizeMB: 2, KeySpace: 500, Seed: 5,
		Columns: []Column{
			{Name: "id", Type: Int64Col},
			{Name: "tier", Type: StringCol},
		},
		Rows: func(ordinal int64, key uint64) []Value {
			if key%2 == 0 {
				return []Value{"pro"}
			}
			return []Value{"free"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := sys.CreateTable(tapeE, TableSpec{
		Name: "events", SizeMB: 8, KeySpace: 500, Seed: 6,
		Columns: []Column{
			{Name: "account", Type: Int64Col},
			{Name: "bytes", Type: FloatCol},
		},
		Rows: func(ordinal int64, key uint64) []Value {
			return []Value{float64(ordinal % 1000)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return accounts, events
}

func TestRunQueryEndToEnd(t *testing.T) {
	sys := quickSystem(t, 1, 16)
	accounts, events := buildTypedTables(t, sys)

	res, err := sys.RunQuery(QuerySpec{
		R: accounts, S: events,
		Where: And(
			Cmp(Eq, RCol("tier"), Lit("pro")),
			Cmp(Ge, SCol("bytes"), Lit(200.0)),
		),
		Select: []Expr{RCol("id"), SCol("bytes")},
		Limit:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == "" || res.Response <= 0 {
		t.Fatalf("incomplete result: %+v", res)
	}
	// Single-sided conjuncts are pushed into the join, so the joined
	// pairs all pass and the join itself shrinks.
	if res.Count == 0 || res.Count != res.JoinMatches {
		t.Fatalf("count = %d of %d", res.Count, res.JoinMatches)
	}
	if len(res.Rows) > 4 {
		t.Fatalf("limit ignored: %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].(int64)%2 != 0 {
			t.Fatalf("row %v violates tier predicate", row)
		}
		if row[1].(float64) < 200 {
			t.Fatalf("row %v violates bytes predicate", row)
		}
	}
}

func TestRunQueryUnfilteredMatchesExpected(t *testing.T) {
	sys := quickSystem(t, 1, 16)
	accounts, events := buildTypedTables(t, sys)
	res, err := sys.RunQuery(QuerySpec{R: accounts, S: events})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != res.JoinMatches || res.Count == 0 {
		t.Fatalf("count = %d, joined = %d", res.Count, res.JoinMatches)
	}
}

func TestRunQueryForcedAndBadMethod(t *testing.T) {
	sys := quickSystem(t, 1, 16)
	accounts, events := buildTypedTables(t, sys)
	res, err := sys.RunQuery(QuerySpec{R: accounts, S: events, Method: CTTGH})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != CTTGH {
		t.Fatalf("method = %s", res.Method)
	}
	if _, err := sys.RunQuery(QuerySpec{R: accounts, S: events, Method: "NOPE"}); err == nil {
		t.Fatal("bad method should fail")
	}
	if _, err := sys.RunQuery(QuerySpec{R: accounts}); err == nil {
		t.Fatal("missing table should fail")
	}
}

func TestTableAccessors(t *testing.T) {
	sys := quickSystem(t, 1, 16)
	accounts, _ := buildTypedTables(t, sys)
	if accounts.Name() != "accounts" || accounts.SizeMB() != 2 {
		t.Fatalf("accessors: %s %d", accounts.Name(), accounts.SizeMB())
	}
	if accounts.Rows() != 2*BlocksPerMB*4 {
		t.Fatalf("rows = %d", accounts.Rows())
	}
}

func TestRunQueryBadExpression(t *testing.T) {
	sys := quickSystem(t, 1, 16)
	accounts, events := buildTypedTables(t, sys)
	_, err := sys.RunQuery(QuerySpec{
		R: accounts, S: events,
		Where: Cmp(Eq, RCol("ghost"), Lit(int64(1))),
	})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v, want unknown-column", err)
	}
}

func TestMultiVolumeTapeSetThroughPublicAPI(t *testing.T) {
	sys := quickSystem(t, 1, 16)
	set, err := sys.NewTapeSet("archive", 4, 8) // 4 x 8 MB
	if err != nil {
		t.Fatal(err)
	}
	if set.FreeMB() != 32 {
		t.Fatalf("free = %d", set.FreeMB())
	}
	single, _ := sys.NewTape("r", 16)
	r, err := sys.CreateRelation(single, RelationConfig{Name: "R", SizeMB: 2, KeySpace: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.CreateRelation(set, RelationConfig{Name: "S", SizeMB: 20, KeySpace: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Join(DTNB, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Matches != ExpectedMatches(r, s) {
		t.Fatalf("matches = %d, want %d", res.Stats.Matches, ExpectedMatches(r, s))
	}
	if _, err := sys.NewTapeSet("bad", 0, 8); err == nil {
		t.Fatal("0 volumes should fail")
	}
}

func TestBiDirectionalTapeSpeedsCTTGH(t *testing.T) {
	run := func(biDir bool) *Result {
		sys, err := NewSystem(Config{
			MemoryMB: 1, DiskMB: 4, BiDirectionalTape: biDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, s := makeRelations(t, sys)
		res, err := sys.Join(CTTGH, r, s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fwd, rev := run(false), run(true)
	if rev.Stats.Response >= fwd.Stats.Response {
		t.Fatalf("bi-directional %v should beat %v", rev.Stats.Response, fwd.Stats.Response)
	}
	if rev.Stats.Matches != fwd.Stats.Matches {
		t.Fatalf("outputs differ")
	}
}

// TestStoredOutputSlowsDiskBoundJoin: Section 3.2 folds output stored
// on local disk into a reduced X_D; halving the disk/tape speed ratio
// (an output share of half the disk bandwidth) slows a disk-bound join.
func TestStoredOutputSlowsDiskBoundJoin(t *testing.T) {
	run := func(ratio float64) *Result {
		sys, err := NewSystem(Config{
			MemoryMB: 1, DiskMB: 16, Profile: IdealTape, DiskTapeSpeedRatio: ratio,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, s := makeRelations(t, sys)
		res, err := sys.Join(CDTGH, r, s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pipelined, stored := run(2), run(1)
	if stored.Stats.Response <= pipelined.Stats.Response {
		t.Fatalf("storing output (%v) should cost more than pipelining (%v)",
			stored.Stats.Response, pipelined.Stats.Response)
	}
	if _, err := NewSystem(Config{MemoryMB: 1, DiskMB: 4, DiskTapeSpeedRatio: -1}); err == nil {
		t.Fatal("a negative DiskTapeSpeedRatio should fail")
	}
}

func TestUtilizationInPublicStats(t *testing.T) {
	sys := quickSystem(t, 1, 8)
	r, s := makeRelations(t, sys)
	res, err := sys.Join(CDTGH, r, s)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	for name, u := range map[string]float64{
		"tapeR": st.TapeRUtil, "tapeS": st.TapeSUtil, "disk": st.DiskUtil,
	} {
		if u <= 0 || u > 2 {
			t.Errorf("%s utilization = %v", name, u)
		}
	}
}

func TestRunQueryAggregates(t *testing.T) {
	sys := quickSystem(t, 1, 16)
	accounts, events := buildTypedTables(t, sys)
	res, err := sys.RunQuery(QuerySpec{
		R: accounts, S: events,
		GroupBy: []Expr{RCol("tier")},
		Aggregates: []Agg{
			{Fn: CountAgg},
			{Fn: SumAgg, Arg: SCol("bytes")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2 (free, pro)", len(res.Rows))
	}
	var total int64
	for _, row := range res.Rows {
		total += row[1].(int64)
	}
	if total != res.JoinMatches {
		t.Fatalf("counts sum to %d, want %d", total, res.JoinMatches)
	}
}
