package query

import (
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/join"
	"repro/internal/sim"
)

// copySink keeps stable copies of every pair a join emits.
type copySink struct{ pairs [][2]block.Tuple }

func (c *copySink) Emit(_ *sim.Proc, r, s block.Tuple) {
	r.Payload = append([]byte(nil), r.Payload...)
	s.Payload = append([]byte(nil), s.Payload...)
	c.pairs = append(c.pairs, [2]block.Tuple{r, s})
}

func (c *copySink) Count() int64 { return int64(len(c.pairs)) }

// emitTransient delivers one pair the harshest way the join.Sink
// contract allows: from scratch memory that is overwritten as soon as
// Emit returns, as a reused staging-log chunk would be.
func emitTransient(sink join.Sink, r, s block.Tuple) {
	buf := append(append([]byte(nil), r.Payload...), s.Payload...)
	n := len(r.Payload)
	sink.Emit(nil, block.Tuple{Key: r.Key, Payload: buf[:n]}, block.Tuple{Key: s.Key, Payload: buf[n:]})
	for i := range buf {
		buf[i] = 0xA5
	}
}

// TestSinksKeepNothingFromEmit: querySink and aggSink, fed pairs whose
// memory is poisoned right after each Emit, must produce the rows they
// produce from stable memory — string columns included, the one value
// type that could alias a payload.
func TestSinksKeepNothingFromEmit(t *testing.T) {
	customers, orders := buildTables(t)
	src := &copySink{}
	m, err := join.BySymbol("DT-NB")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := join.Run(m, join.Spec{R: customers.Rel, S: orders.Rel}, execRes(10, 64), src); err != nil {
		t.Fatal(err)
	}
	if len(src.pairs) == 0 {
		t.Fatal("no pairs to feed")
	}

	sel := Query{R: customers, S: orders,
		Where:  Cmp(Eq, Col(SideS, "region"), Lit("apac")),
		Select: []Expr{Col(SideR, "tier"), Col(SideS, "region"), Col(SideS, "amount")},
	}
	agg := Query{R: customers, S: orders,
		GroupBy:    []Expr{Col(SideR, "tier"), Col(SideS, "region")},
		Aggregates: []Agg{{Fn: Count}, {Fn: Sum, Arg: Col(SideS, "amount")}},
	}
	rows := func(transient bool) (selRows, aggRows []Row) {
		c, err := sel.compile()
		if err != nil {
			t.Fatal(err)
		}
		qs := &querySink{q: &sel, where: c.where, selects: c.selects, limit: 1 << 20}
		c, err = agg.compile()
		if err != nil {
			t.Fatal(err)
		}
		as, err := agg.newAggSink(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, sink := range []join.Sink{qs, as} {
			for _, pr := range src.pairs {
				if transient {
					emitTransient(sink, pr[0], pr[1])
				} else {
					sink.Emit(nil, pr[0], pr[1])
				}
			}
		}
		if qs.err != nil || as.err != nil {
			t.Fatal(qs.err, as.err)
		}
		return qs.rows, as.rows()
	}
	wantSel, wantAgg := rows(false)
	gotSel, gotAgg := rows(true)
	if len(wantSel) == 0 || len(wantAgg) < 2 {
		t.Fatalf("vacuous: %d selected rows, %d groups", len(wantSel), len(wantAgg))
	}
	if !reflect.DeepEqual(gotSel, wantSel) {
		t.Error("querySink rows depend on payload memory kept past Emit")
	}
	if !reflect.DeepEqual(gotAgg, wantAgg) {
		t.Error("aggSink groups depend on payload memory kept past Emit")
	}
}
