package query

import (
	"strings"
	"testing"

	"repro/internal/join"
	"repro/internal/relation"
	"repro/internal/tape"
)

// buildTables creates a small typed customers (R) and orders (S) pair.
func buildTables(t *testing.T) (*Table, *Table) {
	t.Helper()
	mR := tape.NewMedia("tr", 512)
	mS := tape.NewMedia("ts", 512)
	customers, err := CreateTable(mR, TableConfig{
		Name: "customers", Tag: 1, Blocks: 24, TuplesPerBlock: 4,
		KeySpace: 200, Seed: 11,
		Schema: Schema{
			{Name: "id", Type: Int64},
			{Name: "tier", Type: String},
		},
		Rows: func(ordinal int64, key uint64) []Value {
			tier := "basic"
			if key%3 == 0 {
				tier = "gold"
			}
			return []Value{tier}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := CreateTable(mS, TableConfig{
		Name: "orders", Tag: 2, Blocks: 96, TuplesPerBlock: 4,
		KeySpace: 200, Seed: 22,
		Schema: Schema{
			{Name: "cust", Type: Int64},
			{Name: "amount", Type: Float64},
			{Name: "region", Type: String},
		},
		Rows: func(ordinal int64, key uint64) []Value {
			region := "emea"
			if ordinal%2 == 0 {
				region = "apac"
			}
			return []Value{float64(ordinal % 50), region}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return customers, orders
}

func execRes(m, d int64) join.Resources {
	return join.Resources{
		MemoryBlocks: m,
		DiskBlocks:   d,
		NumDisks:     2,
		DiskRate:     2 * tape.Ideal().EffectiveRate(),
		Tape:         tape.Ideal(),
		IOChunk:      8,
	}
}

func TestQueryCountMatchesExpectedJoin(t *testing.T) {
	customers, orders := buildTables(t)
	res, err := Run(Query{R: customers, S: orders}, execRes(10, 64))
	if err != nil {
		t.Fatal(err)
	}
	want := relation.ExpectedMatches(customers.Rel, orders.Rel)
	if res.JoinMatches != want || res.Count != want {
		t.Fatalf("matches = %d/%d, want %d", res.JoinMatches, res.Count, want)
	}
	if res.Method == "" || res.Stats.Response <= 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
}

func TestQueryWhereFiltersExactly(t *testing.T) {
	customers, orders := buildTables(t)
	// gold customers with amount >= 25.
	q := Query{
		R: customers, S: orders,
		Where: And(
			Cmp(Eq, Col(SideR, "tier"), Lit("gold")),
			Cmp(Ge, Col(SideS, "amount"), Lit(25.0)),
		),
		Select: []Expr{Col(SideR, "id"), Col(SideS, "amount"), Col(SideS, "region")},
	}
	res, err := Run(q, execRes(10, 64))
	if err != nil {
		t.Fatal(err)
	}
	// Both conjuncts are single-sided, so they are pushed into the
	// join: every joined pair passes, and the join itself is smaller.
	if res.Count == 0 || res.Count != res.JoinMatches {
		t.Fatalf("pushed-down query: count %d of %d joined", res.Count, res.JoinMatches)
	}
	unfiltered, err := Run(Query{R: q.R, S: q.S}, execRes(10, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinMatches >= unfiltered.JoinMatches {
		t.Fatalf("pushdown did not shrink the join: %d vs %d", res.JoinMatches, unfiltered.JoinMatches)
	}
	// Every materialized row satisfies the predicate structurally.
	for _, row := range res.Rows {
		if len(row) != 3 {
			t.Fatalf("row = %v", row)
		}
		id, amount := row[0].(int64), row[1].(float64)
		if id%3 != 0 {
			t.Fatalf("row %v: id not a gold customer", row)
		}
		if amount < 25 {
			t.Fatalf("row %v: amount below predicate", row)
		}
	}
	// Cross-check the count: count S tuples with amount >= 25 whose
	// key is a gold customer, weighted by the R-side multiplicity of
	// the key. Amount is ordinal%50; replicate the generator.
	rCounts := customers.Rel.KeyCounts()
	var want int64
	tuples := orders.Rel.Tuples()
	keys := replayKeys(orders.Rel, tuples)
	for ordinal := int64(0); ordinal < tuples; ordinal++ {
		key := keys[ordinal]
		if key%3 != 0 {
			continue
		}
		if float64(ordinal%50) < 25 {
			continue
		}
		want += rCounts[key]
	}
	if res.Count != want {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
}

// replayKeys regenerates a relation's key sequence via KeyCounts-style
// replay: WriteToTape and KeyCounts share the seeded stream, so a
// second relation with the same config yields the same keys. We read
// them back from the tape blocks instead, which also exercises decode.
func replayKeys(rel *relation.Relation, n int64) []uint64 {
	blks, err := rel.Media.ReadSetup(rel.Region)
	if err != nil {
		panic(err)
	}
	keys := make([]uint64, 0, n)
	for _, blk := range blks {
		_, tuples := blk.MustDecode()
		for _, tp := range tuples {
			keys = append(keys, tp.Key)
		}
	}
	return keys
}

func TestQueryLimitCapsRowsNotCount(t *testing.T) {
	customers, orders := buildTables(t)
	q := Query{
		R: customers, S: orders,
		Select: []Expr{Col(SideR, "id")},
		Limit:  5,
	}
	res, err := Run(q, execRes(10, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if res.Count != res.JoinMatches || res.Count <= 5 {
		t.Fatalf("count %d should be exact and above the limit", res.Count)
	}
}

func TestQueryAdvisorPicksTapeTapeWhenDiskTiny(t *testing.T) {
	customers, orders := buildTables(t)
	res, err := Run(Query{R: customers, S: orders}, execRes(10, 16)) // D < |R| = 24 blocks
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "CTT-GH" {
		t.Fatalf("method = %s, want CTT-GH with D < |R|", res.Method)
	}
}

func TestQueryForcedMethod(t *testing.T) {
	customers, orders := buildTables(t)
	res, err := Run(Query{R: customers, S: orders, Method: "DT-NB"}, execRes(10, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "DT-NB" {
		t.Fatalf("method = %s", res.Method)
	}
	if _, err := Run(Query{R: customers, S: orders, Method: "XX"}, execRes(10, 64)); err == nil {
		t.Fatal("unknown method should fail")
	}
}

func TestQueryCompileErrors(t *testing.T) {
	customers, orders := buildTables(t)
	cases := []Query{
		{R: customers, S: orders, Where: Col(SideR, "nope")},
		{R: customers, S: orders, Where: Col(SideR, "tier")}, // non-boolean
		{R: customers, S: orders, Select: []Expr{Col(SideS, "ghost")}},
		{R: nil, S: orders},
		{R: orders, S: customers}, // R larger than S
	}
	for i, q := range cases {
		if _, err := Run(q, execRes(10, 64)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCreateTableErrors(t *testing.T) {
	m := tape.NewMedia("t", 64)
	if _, err := CreateTable(m, TableConfig{
		Name: "bad", Tag: 1, Blocks: 4, TuplesPerBlock: 2, KeySpace: 10, Seed: 1,
		Schema: Schema{{Name: "k", Type: Float64}},
	}); err == nil {
		t.Fatal("bad schema should fail")
	}
	if _, err := CreateTable(m, TableConfig{
		Name: "bad", Tag: 1, Blocks: 4, TuplesPerBlock: 2, KeySpace: 10, Seed: 1,
		Schema: Schema{{Name: "k", Type: Int64}, {Name: "v", Type: String}},
		Rows:   func(int64, uint64) []Value { return []Value{int64(3)} }, // wrong type
	}); err == nil {
		t.Fatal("row generator type mismatch should fail")
	}
}

func TestQueryNoFeasibleMethod(t *testing.T) {
	// Tiny cartridges with no scratch and D too small for anything.
	mR := tape.NewMedia("tr", 24)
	mS := tape.NewMedia("ts", 96)
	customers, err := CreateTable(mR, TableConfig{
		Name: "c", Tag: 1, Blocks: 24, TuplesPerBlock: 2, KeySpace: 50, Seed: 1,
		Schema: Schema{{Name: "id", Type: Int64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := CreateTable(mS, TableConfig{
		Name: "o", Tag: 2, Blocks: 96, TuplesPerBlock: 2, KeySpace: 50, Seed: 2,
		Schema: Schema{{Name: "cust", Type: Int64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Query{R: customers, S: orders}, execRes(10, 4))
	if err == nil || !strings.Contains(err.Error(), "no feasible") {
		t.Fatalf("err = %v, want no-feasible-method", err)
	}
}

// sizedTable creates a one-column table of the given size in blocks.
func sizedTable(t *testing.T, name string, tag byte, blocks int64) *Table {
	t.Helper()
	tbl, err := CreateTable(tape.NewMedia(name, 512), TableConfig{
		Name: name, Tag: tag, Blocks: blocks, TuplesPerBlock: 4,
		KeySpace: 200, Seed: int64(tag),
		Schema: Schema{{Name: "id", Type: Int64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestRunSkipsAdvisorPickThatFailsCheck: at M=4, D=22 the cost model
// prices CTT-GH cheapest for |R|=16, |S|=64 blocks, but the GH methods'
// footprints do not fit (6 buckets, 3 write buffers). Run must fall
// back to the cheapest method that fits, not fail.
func TestRunSkipsAdvisorPickThatFailsCheck(t *testing.T) {
	r, s := sizedTable(t, "r", 1, 16), sizedTable(t, "s", 2, 64)
	res := execRes(4, 22)
	for _, m := range []join.Method{join.CDTGH{}, join.CTTGH{}} {
		if err := join.Check(m, join.Spec{R: r.Rel, S: s.Rel}, res.WithDefaults()); err == nil {
			t.Fatalf("%s passes Check; the case no longer exercises the fallback", m.Symbol())
		}
	}
	out, err := Run(Query{R: r, S: s}, res)
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.ExpectedMatches(r.Rel, s.Rel); out.JoinMatches != want {
		t.Fatalf("%s: matches = %d, want %d", out.Method, out.JoinMatches, want)
	}
	if out.Method != "DT-NB" {
		t.Fatalf("method = %s, want DT-NB, the cheapest feasible one", out.Method)
	}
}
