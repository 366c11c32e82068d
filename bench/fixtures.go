package main

import (
	"context"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	tableBig    = "lineitem"
	tableSmall  = "lineitem_small"
	tableIngest = "ingest_t"

	lineitemRows = 524288 // 8 full segments
	smallRows    = 4096   // one partial segment
	segmentRows  = 65536  // storage.Server's default SegmentRows
	ingestCycle  = 8      // batches loaded before ingest_t is verified and dropped
	volcanoPool  = 512 << 20
)

// config is the run shape. It is the same on every commit; tests shrink
// rows and replace the timed phases with a fixed op count.
type config struct {
	seed      uint64
	rows      int     // lineitem rows
	seconds   float64 // measured phase
	warmup    float64 // untimed warm-up before it
	traced    float64 // budget of the traced pass
	setupReps int     // set-ups per run; setup_s is their median
	maxOps    int     // tests only: ops per phase instead of seconds
}

// fixture is one loaded engine plus the generated rows the oracles and
// the baseline engine are built from.
type fixture struct {
	cfg config
	eng *core.DataFlowEngine
	// gen is the generator configuration of each table and raw the rows
	// it generated; for ingest_t, the one batch every op loads.
	gen map[string]workload.LineitemConfig
	raw map[string]*columnar.Batch
}

// setup generates the inputs from the seed and loads them: everything
// setup_s times. The big and the small table live in one engine, so the
// small-query workload runs with the big table resident.
func setup(cfg config) (*fixture, error) {
	fx := &fixture{cfg: cfg, gen: map[string]workload.LineitemConfig{}, raw: map[string]*columnar.Batch{}}
	fx.eng = core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	fx.eng.Workers = 1
	for i, t := range []struct {
		name string
		rows int
	}{{tableBig, cfg.rows}, {tableSmall, smallRows}, {tableIngest, min(cfg.rows, segmentRows)}} {
		gen := workload.DefaultLineitemConfig(t.rows)
		gen.Seed = cfg.seed + uint64(i)
		fx.gen[t.name] = gen
		fx.raw[t.name] = workload.GenLineitem(gen)
		if err := fx.eng.CreateTable(t.name, workload.LineitemSchema()); err != nil {
			return nil, err
		}
		if t.name == tableIngest {
			continue // the ingest workload loads it, op by op
		}
		if err := fx.eng.Load(t.name, fx.raw[t.name]); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// dropRaw releases the generated rows of the loaded tables once the
// oracle has been computed from them, so they do not sit in the resident
// set the measured phase reports.
func (fx *fixture) dropRaw() {
	delete(fx.raw, tableBig)
	delete(fx.raw, tableSmall)
}

// volcano loads the workload's table into a fresh baseline engine: a
// VolcanoEngine on the legacy fabric with a buffer pool that holds the
// whole table.
func (fx *fixture) volcano(w *benchWorkload) (*core.VolcanoEngine, error) {
	vol := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), volcanoPool)
	if err := vol.CreateTable(w.table, workload.LineitemSchema()); err != nil {
		return nil, err
	}
	loads := 1
	if w.table == tableIngest {
		loads = ingestCycle
	}
	rows := workload.GenLineitem(fx.gen[w.table])
	for i := 0; i < loads; i++ {
		if err := vol.Load(w.table, rows); err != nil {
			return nil, err
		}
	}
	return vol, nil
}

// storedBytesPerRow is the size at rest of a table: the sum of its
// segment objects over its rows.
func (fx *fixture) storedBytesPerRow(table string) (float64, error) {
	meta, err := fx.eng.Storage.Table(table)
	if err != nil {
		return 0, err
	}
	if meta.NumRows == 0 {
		return 0, fmt.Errorf("bench: table %s is empty", table)
	}
	var total sim.Bytes
	for _, key := range meta.SegmentKeys {
		total += fx.eng.Storage.Store().Size(key)
	}
	return float64(total) / float64(meta.NumRows), nil
}

// virtual accumulates the simulator's statistics over ops. They are
// integers and repeat exactly at one seed.
type virtual struct {
	simTime sim.VTime
	moved   sim.Bytes
	ops     int64
}

func (v *virtual) add(st core.ExecStats, ops int64) {
	v.simTime += st.SimTime
	v.moved += st.MovedBytes
	v.ops += ops
}

// A driver issues one workload's ops. op is the only part that is
// timed; settle does the oracle check and bookkeeping afterwards.
type driver interface {
	op() (*core.Result, error)
	// settle folds the op's virtual statistics into v and, when check is
	// set, compares its result with the oracle.
	settle(res *core.Result, check bool, v *virtual) error
	// finish ends a phase: whatever settle left unverified is verified.
	finish(v *virtual) error
	// prepareTrace leaves the workload's table as the traced pass needs it.
	prepareTrace() error
	storedBytesPerRow() (float64, error)
}

// queryDriver runs one query through DataFlowEngine.Execute.
type queryDriver struct {
	fx *fixture
	w  *benchWorkload
}

func (d *queryDriver) op() (*core.Result, error) {
	return d.fx.eng.Execute(context.Background(), d.w.query)
}

func (d *queryDriver) settle(res *core.Result, check bool, v *virtual) error {
	v.add(res.Stats, 1)
	if !check {
		return nil
	}
	return d.w.ref.check(res)
}

func (d *queryDriver) finish(*virtual) error { return nil }
func (d *queryDriver) prepareTrace() error   { return nil }
func (d *queryDriver) storedBytesPerRow() (float64, error) {
	return d.fx.storedBytesPerRow(d.w.table)
}

// ingestDriver loads one pre-generated batch per op. Every ingestCycle
// ops it reads the table back with COUNT(*), which must equal the rows
// loaded, then drops and re-creates the table so memory stays flat.
//
// Loading charges no virtual device, so the virtual metrics of this
// workload are those of the read-back scan, per batch read back: they
// are never zero and they grow when the format gets bigger at rest. Only
// full cycles are folded in, so the numbers do not depend on where the
// phase happened to stop.
type ingestDriver struct {
	fx     *fixture
	w      *benchWorkload
	loaded int // batches in the table
	stored float64
}

func (d *ingestDriver) op() (*core.Result, error) {
	return nil, d.fx.eng.Load(tableIngest, d.fx.raw[tableIngest])
}

func (d *ingestDriver) settle(_ *core.Result, _ bool, v *virtual) error {
	d.loaded++
	if d.loaded < ingestCycle {
		return nil
	}
	if err := d.readBack(v); err != nil {
		return err
	}
	return d.reset()
}

func (d *ingestDriver) finish(v *virtual) error {
	if d.loaded == 0 {
		return nil
	}
	var partial virtual
	if err := d.readBack(&partial); err != nil {
		return err
	}
	if v.ops == 0 { // a phase shorter than one cycle
		*v = partial
	}
	return d.reset()
}

// readBack checks COUNT(*) against the batches loaded and folds the
// scan's virtual statistics into v.
func (d *ingestDriver) readBack(v *virtual) error {
	res, err := d.fx.eng.Execute(context.Background(), d.w.query)
	if err != nil {
		return err
	}
	want := int64(d.loaded) * int64(d.fx.raw[tableIngest].NumRows())
	if err := countOracle(want).check(res); err != nil {
		return err
	}
	v.add(res.Stats, int64(d.loaded))
	d.stored, err = d.fx.storedBytesPerRow(tableIngest)
	return err
}

// reset empties the table. The engine keeps planner statistics per
// table name and merges every load into them, so they are reset too:
// every cycle then plans its read-back from the same statistics.
func (d *ingestDriver) reset() error {
	d.fx.eng.Storage.DropTable(tableIngest)
	if err := d.fx.eng.CreateTable(tableIngest, workload.LineitemSchema()); err != nil {
		return err
	}
	d.fx.eng.SetStats(tableIngest, plan.StatsFromSchema(workload.LineitemSchema()))
	d.loaded = 0
	return nil
}

// prepareTrace fills one full cycle, the table the read-back query of
// the traced pass scans.
func (d *ingestDriver) prepareTrace() error {
	if err := d.reset(); err != nil {
		return err
	}
	for i := 0; i < ingestCycle; i++ {
		if _, err := d.op(); err != nil {
			return err
		}
		d.loaded++
	}
	return nil
}

func (d *ingestDriver) storedBytesPerRow() (float64, error) {
	if d.stored == 0 {
		return 0, fmt.Errorf("bench: %s was never read back", tableIngest)
	}
	return d.stored, nil
}
