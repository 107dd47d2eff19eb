package query

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/join"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/tape"
)

// Table is a typed relation materialized on tape.
type Table struct {
	Rel    *relation.Relation
	Schema Schema
}

// RowGen supplies the non-key column values of a row given its ordinal
// position and generated join key. It must be deterministic.
type RowGen func(ordinal int64, key uint64) []Value

// TableConfig describes a typed table to generate onto tape.
type TableConfig struct {
	// Name, Tag, Blocks, TuplesPerBlock, KeySpace, Seed mirror
	// relation.Config.
	Name           string
	Tag            byte
	Blocks         int64
	TuplesPerBlock int
	KeySpace       uint64
	Seed           int64
	// Schema gives the table's columns; column 0 is the join key.
	Schema Schema
	// Rows supplies non-key values; nil uses defaultRows.
	Rows RowGen
}

// defaultRows derives deterministic values from the ordinal.
func defaultRows(schema Schema) RowGen {
	return func(ordinal int64, key uint64) []Value {
		out := make([]Value, 0, len(schema)-1)
		for _, c := range schema[1:] {
			switch c.Type {
			case Int64:
				out = append(out, ordinal)
			case Float64:
				out = append(out, float64(ordinal)/2)
			case String:
				out = append(out, fmt.Sprintf("v%03d", ordinal%997))
			}
		}
		return out
	}
}

// CreateTable generates a typed table onto the medium. The join keys
// come from the same seeded stream as relation.WriteToTape, so
// relation.ExpectedMatches still predicts join cardinalities exactly.
func CreateTable(m tape.Medium, cfg TableConfig) (*Table, error) {
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	rows := cfg.Rows
	if rows == nil {
		rows = defaultRows(cfg.Schema)
	}
	var genErr error
	rel, err := relation.WriteToTape(relation.Config{
		Name:           cfg.Name,
		Tag:            cfg.Tag,
		Blocks:         cfg.Blocks,
		TuplesPerBlock: cfg.TuplesPerBlock,
		KeySpace:       cfg.KeySpace,
		Seed:           cfg.Seed,
		PayloadGen: func(ordinal int64, key uint64) []byte {
			row := append(Row{int64(key)}, rows(ordinal, key)...)
			_, payload, err := cfg.Schema.Encode(row)
			if err != nil && genErr == nil {
				genErr = fmt.Errorf("query: table %q row %d: %w", cfg.Name, ordinal, err)
			}
			return payload
		},
	}, m)
	if err != nil {
		return nil, err
	}
	if genErr != nil {
		return nil, genErr
	}
	return &Table{Rel: rel, Schema: cfg.Schema}, nil
}

// Query is an equi-join of two tables on their key columns, with an
// optional post-join predicate and a projection.
type Query struct {
	R, S *Table
	// Where filters joined pairs; nil keeps everything. Must be
	// int64-typed (0 = drop, nonzero = keep).
	Where Expr
	// Select lists the output expressions; empty counts rows without
	// materializing any. Mutually exclusive with Aggregates.
	Select []Expr
	// GroupBy and Aggregates fold the (filtered) join output into
	// grouped aggregates instead of materializing rows: the result has
	// one row per group, group-by values first, then one column per
	// aggregate. Empty GroupBy with Aggregates produces one global
	// row.
	GroupBy    []Expr
	Aggregates []Agg
	// Method forces a join method by symbol; empty lets the paper's
	// cost model choose among feasible methods.
	Method string
	// Limit caps the rows materialized into Result.Rows; 0 means 1000.
	// It is presentation-only: the join still runs to completion and
	// Count / JoinMatches stay exact. To stop the join itself after n
	// pairs, use StopAfter.
	Limit int
	// StopAfter, when positive, terminates the join after n output
	// pairs (counted before the residual WHERE): a true top-k /
	// LIMIT-n execution that stops reading the tapes, not just a
	// materialization cap. The delivered pairs are a prefix of some
	// complete run's output; Count and JoinMatches then reflect only
	// the delivered prefix and Result.Stopped reports the early exit.
	// Method selection prefers the streaming SYM-H join when feasible.
	StopAfter int64
}

// Result is a query's outcome.
type Result struct {
	// Method is the join method that ran.
	Method string
	// Rows holds up to Limit projected rows.
	Rows []Row
	// Count is the exact number of joined pairs passing Where.
	Count int64
	// JoinMatches is the raw join cardinality before Where.
	JoinMatches int64
	// Stopped reports that the join terminated early because
	// Query.StopAfter was reached; Count and JoinMatches then cover
	// only the delivered prefix.
	Stopped bool
	// Stats is the underlying join's device accounting.
	Stats join.Stats
}

// querySink evaluates the predicate and projection on the join's
// output stream.
type querySink struct {
	q       *Query
	where   Expr
	selects []Expr
	limit   int

	matches int64
	count   int64
	rows    []Row
	err     error
}

func (qs *querySink) Emit(_ *sim.Proc, r, s block.Tuple) {
	qs.matches++
	if qs.err != nil {
		return
	}
	rRow, err := qs.q.R.Schema.Decode(r.Key, r.Payload)
	if err != nil {
		qs.err = err
		return
	}
	sRow, err := qs.q.S.Schema.Decode(s.Key, s.Payload)
	if err != nil {
		qs.err = err
		return
	}
	if qs.where != nil {
		keep, err := qs.where.Eval(rRow, sRow)
		if err != nil {
			qs.err = err
			return
		}
		if keep.(int64) == 0 {
			return
		}
	}
	qs.count++
	if len(qs.selects) == 0 || len(qs.rows) >= qs.limit {
		return
	}
	out := make(Row, len(qs.selects))
	for i, e := range qs.selects {
		v, err := e.Eval(rRow, sRow)
		if err != nil {
			qs.err = err
			return
		}
		out[i] = v
	}
	qs.rows = append(qs.rows, out)
}

func (qs *querySink) Count() int64 { return qs.matches }

// compiled is the executable form of a query's expressions: the
// residual predicate runs on the join output, and the single-sided
// conjuncts are pushed into the join as input filters.
type compiled struct {
	where   Expr // residual predicate (nil if fully pushed down)
	selects []Expr
	filterR keepRowFn
	filterS keepRowFn
}

// keepRowFn evaluates a pushed-down predicate on one side's row.
type keepRowFn func(row Row) (bool, error)

// compile validates, binds and splits the query's expressions.
func (q *Query) compile() (*compiled, error) {
	if q.R == nil || q.S == nil {
		return nil, fmt.Errorf("query: missing table")
	}
	rs, ss := q.R.Schema, q.S.Schema
	out := &compiled{}
	if q.Where != nil {
		t, err := q.Where.Check(rs, ss)
		if err != nil {
			return nil, err
		}
		if t != Int64 {
			return nil, fmt.Errorf("query: WHERE is %v, want int64", t)
		}
		rOnly, sOnly, residual := splitConjuncts(q.Where)
		bindSide := func(es []Expr, rSide bool) (keepRowFn, error) {
			if len(es) == 0 {
				return nil, nil
			}
			bound, err := bindExpr(And(es...), rs, ss)
			if err != nil {
				return nil, err
			}
			return func(row Row) (bool, error) {
				var v Value
				var err error
				if rSide {
					v, err = bound.Eval(row, nil)
				} else {
					v, err = bound.Eval(nil, row)
				}
				if err != nil {
					return false, err
				}
				return v.(int64) != 0, nil
			}, nil
		}
		if out.filterR, err = bindSide(rOnly, true); err != nil {
			return nil, err
		}
		if out.filterS, err = bindSide(sOnly, false); err != nil {
			return nil, err
		}
		if len(residual) > 0 {
			bound, err := bindExpr(And(residual...), rs, ss)
			if err != nil {
				return nil, err
			}
			out.where = bound
		}
	}
	for _, e := range q.Select {
		if _, err := e.Check(rs, ss); err != nil {
			return nil, err
		}
		bound, err := bindExpr(e, rs, ss)
		if err != nil {
			return nil, err
		}
		out.selects = append(out.selects, bound)
	}
	return out, nil
}

// specFilters converts the pushed-down predicates into tuple filters
// for the join layer. Evaluation errors (impossible after Check) drop
// the tuple and are surfaced via the sink error slot.
func (q *Query) specFilters(c *compiled, reportErr func(error)) (fr, fs func(block.Tuple) bool) {
	if c.filterR != nil {
		schema := q.R.Schema
		fr = func(t block.Tuple) bool {
			row, err := schema.Decode(t.Key, t.Payload)
			if err != nil {
				reportErr(err)
				return false
			}
			keep, err := c.filterR(row)
			if err != nil {
				reportErr(err)
				return false
			}
			return keep
		}
	}
	if c.filterS != nil {
		schema := q.S.Schema
		fs = func(t block.Tuple) bool {
			row, err := schema.Decode(t.Key, t.Payload)
			if err != nil {
				reportErr(err)
				return false
			}
			keep, err := c.filterS(row)
			if err != nil {
				reportErr(err)
				return false
			}
			return keep
		}
	}
	return fr, fs
}

// newAggSink checks and binds the query's grouping and aggregate
// expressions into a grouped-aggregate sink.
func (q *Query) newAggSink(c *compiled) (*aggSink, error) {
	if len(q.Select) > 0 {
		return nil, fmt.Errorf("query: Select and Aggregates are mutually exclusive")
	}
	rs, ss := q.R.Schema, q.S.Schema
	sink := &aggSink{
		q: q, where: c.where,
		groups:  map[string]*aggGroup{},
		argType: make([]Type, len(q.Aggregates)),
	}
	for _, e := range q.GroupBy {
		if _, err := e.Check(rs, ss); err != nil {
			return nil, err
		}
		bound, err := bindExpr(e, rs, ss)
		if err != nil {
			return nil, err
		}
		sink.groupBy = append(sink.groupBy, bound)
	}
	for i, a := range q.Aggregates {
		if err := a.check(rs, ss); err != nil {
			return nil, err
		}
		if a.Arg != nil {
			t, _ := a.Arg.Check(rs, ss)
			sink.argType[i] = t
			bound, err := bindExpr(a.Arg, rs, ss)
			if err != nil {
				return nil, err
			}
			a.Arg = bound
		}
		sink.aggs = append(sink.aggs, a)
	}
	return sink, nil
}

// runAggregate executes the query with a grouped-aggregate sink.
func (q *Query) runAggregate(res join.Resources, method join.Method, c *compiled) (*Result, error) {
	sink, err := q.newAggSink(c)
	if err != nil {
		return nil, err
	}
	spec := join.Spec{R: q.R.Rel, S: q.S.Rel}
	spec.FilterR, spec.FilterS = q.specFilters(c, func(err error) {
		if sink.err == nil {
			sink.err = err
		}
	})
	result, err := join.Run(method, spec, res, sink)
	if err != nil {
		return nil, err
	}
	if sink.err != nil {
		return nil, sink.err
	}
	return &Result{
		Method:      method.Symbol(),
		Rows:        sink.rows(),
		Count:       sink.count,
		JoinMatches: sink.matches,
		Stats:       result.Stats,
	}, nil
}

// method resolves the query's join method: the named one, else
// join.Choose's pick for spec on res.
func (q *Query) method(spec join.Spec, res join.Resources) (join.Method, error) {
	if q.Method != "" {
		return join.BySymbol(q.Method)
	}
	if m := join.Choose(spec, res, q.StopAfter); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("query: no feasible join method for these resources")
}

// Run executes the query on the given device complex. Single-sided
// WHERE conjuncts are pushed into the join as input filters, shrinking
// R's staged copy and S's buffered chunks; only join-level conjuncts
// evaluate on the output stream.
func Run(q Query, res join.Resources) (*Result, error) {
	res = res.WithDefaults()
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	spec := join.Spec{R: q.R.Rel, S: q.S.Rel}
	method, err := q.method(spec, res)
	if err != nil {
		return nil, err
	}
	limit := q.Limit
	if limit == 0 {
		limit = 1000
	}

	if len(q.Aggregates) > 0 {
		if q.StopAfter > 0 {
			return nil, fmt.Errorf("query: StopAfter with Aggregates is unsupported: an aggregate over an arbitrary output prefix is not a meaningful result")
		}
		return q.runAggregate(res, method, c)
	}
	sink := &querySink{q: &q, where: c.where, selects: c.selects, limit: limit}
	// R must be the smaller side; swap transparently if needed, since
	// the equi-join is symmetric. The sink sees (r, s) in the
	// schema's order either way.
	if q.R.Rel.Region.N > q.S.Rel.Region.N {
		return nil, fmt.Errorf("query: R (%d blocks) must be the smaller table", q.R.Rel.Region.N)
	}
	spec.FilterR, spec.FilterS = q.specFilters(c, func(err error) {
		if sink.err == nil {
			sink.err = err
		}
	})
	result, err := join.RunWith(method, spec, res, sink, join.ExecOptions{StopAfter: q.StopAfter})
	if err != nil {
		return nil, err
	}
	if sink.err != nil {
		return nil, sink.err
	}
	return &Result{
		Method:      method.Symbol(),
		Rows:        sink.rows,
		Count:       sink.count,
		JoinMatches: sink.matches,
		Stopped:     result.Stats.Stopped,
		Stats:       result.Stats,
	}, nil
}
