package experiments

import (
	"fmt"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/sim"
)

// E23Selectivities is the selectivity sweep both arms run at.
var E23Selectivities = []float64{0.01, 0.1, 0.5, 1.0}

// e23Schema: one filter column per encoding under test, plus a
// bit-packed payload column that every query projects (so the gather
// decode has real work at every point).
//
//	key     BIGINT  uniform [0, 10000)      -> bit-packed
//	tag     VARCHAR 100 distinct values     -> dictionary
//	price   DOUBLE  uniform [0, 1000)       -> plain
//	payload BIGINT  uniform [0, 1<<20)      -> bit-packed
const (
	e23Key = iota
	e23Tag
	e23Price
	e23Payload
)

const (
	e23KeyDomain  = 10000
	e23TagDomain  = 100
	e23PriceScale = 1000.0
)

func e23Schema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "key", Type: columnar.Int64},
		columnar.Field{Name: "tag", Type: columnar.String},
		columnar.Field{Name: "price", Type: columnar.Float64},
		columnar.Field{Name: "payload", Type: columnar.Int64},
	)
}

func e23Gen(rows int) *columnar.Batch {
	rng := sim.NewRNG(23)
	b := columnar.NewBatch(e23Schema(), rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(
			columnar.IntValue(rng.Int63n(e23KeyDomain)),
			columnar.StringValue(fmt.Sprintf("tag-%02d", rng.Int63n(e23TagDomain))),
			columnar.FloatValue(float64(rng.Int63n(1000000))/1000000*e23PriceScale),
			columnar.IntValue(rng.Int63n(1<<20)),
		)
	}
	return b
}

// e23Filter builds a predicate on the encoding-under-test's column that
// keeps approximately frac of the rows.
func e23Filter(encoding string, frac float64) expr.Predicate {
	switch encoding {
	case "bitpacked":
		hi := int64(float64(e23KeyDomain)*frac) - 1
		if hi < 0 {
			hi = 0
		}
		return expr.NewBetween(e23Key, 0, hi)
	case "dict":
		k := int(float64(e23TagDomain)*frac + 0.5)
		if k < 1 {
			k = 1
		}
		vals := make([]columnar.Value, k)
		for i := range vals {
			vals[i] = columnar.StringValue(fmt.Sprintf("tag-%02d", i))
		}
		return expr.NewIn(e23Tag, vals...)
	case "plain":
		return expr.NewCmp(e23Price, expr.Lt, columnar.FloatValue(e23PriceScale*frac))
	}
	panic("experiments: unknown E23 encoding " + encoding)
}

// E23Encodings is the encoding sweep: which codec the filter column uses.
var E23Encodings = []string{"bitpacked", "dict", "plain"}

// E23Row is one sweep cell: one encoding, one selectivity, both arms.
type E23Row struct {
	Encoding        string    `col:"encoding"`
	Selectivity     float64   `col:"sel"`
	Rows            int64     `col:"rows"`
	EagerProcBusy   sim.VTime `col:"proc busy eager"`
	EncodedProcBusy sim.VTime `col:"proc busy encoded"`
	// ProcSpeedup is eager / encoded in-storage busy time.
	ProcSpeedup float64   `col:"speedup"`
	EagerSim    sim.VTime `col:"simtime eager"`
	EncodedSim  sim.VTime `col:"simtime encoded"`
	SavedBytes  sim.Bytes `col:"saved decode bytes,%d"` // decode bytes the encoded arm avoided

	ShippedBytes sim.Bytes
	MediaBytes   sim.Bytes
	EncodedSegs  int64
}

// E23EncodedEval measures decode-cost elimination: the same filtered
// projection runs with eager decode-then-filter and with encoded
// predicate evaluation plus late materialization, across a selectivity
// sweep on three filter-column codecs (bit-packed ints, dictionary
// strings, plain floats). Both arms run the identical plan shape
// (filter pushed to the storage processor); only the execution strategy
// differs. Rows, shipped bytes and media bytes must be identical at
// every point — encoded evaluation changes where decode work happens,
// never what the query answers — while the storage processor's busy
// time drops roughly in proportion to the rows that never get decoded.
func E23EncodedEval(rows int) (*Result[E23Row], error) {
	data := e23Gen(rows)
	res := newResult[E23Row]("E23",
		"Decode-cost elimination: encoded predicate eval + late materialization vs eager decode",
		"both arms run the same storage-pushdown plan; the encoded arm filters on "+
			"encoded columns and gather-decodes survivors only. rows, shipped bytes and "+
			"media bytes are identical at every sweep point; only decode busy time moves")
	for _, enc := range E23Encodings {
		for _, sel := range E23Selectivities {
			q := plan.NewQuery("t").
				WithFilter(e23Filter(enc, sel)).
				WithProjection(e23Payload, e23Price)
			eager, err := e23Run(q, data, true)
			if err != nil {
				return nil, err
			}
			encoded, err := e23Run(q, data, false)
			if err != nil {
				return nil, err
			}
			if eager.rows != encoded.rows {
				return nil, fmt.Errorf("experiments: E23 %s sel=%g rows differ: eager %d, encoded %d",
					enc, sel, eager.rows, encoded.rows)
			}
			if eager.shipped != encoded.shipped || eager.media != encoded.media {
				return nil, fmt.Errorf("experiments: E23 %s sel=%g bytes differ: shipped %v/%v media %v/%v",
					enc, sel, eager.shipped, encoded.shipped, eager.media, encoded.media)
			}
			pt := E23Row{
				Encoding:        enc,
				Selectivity:     sel,
				Rows:            eager.rows,
				EagerProcBusy:   eager.procBusy,
				EncodedProcBusy: encoded.procBusy,
				EagerSim:        eager.simTime,
				EncodedSim:      encoded.simTime,
				ShippedBytes:    eager.shipped,
				MediaBytes:      eager.media,
				SavedBytes:      encoded.saved,
				EncodedSegs:     encoded.encSegs,
				ProcSpeedup:     float64(eager.procBusy) / float64(encoded.procBusy),
			}
			res.put(pt)
			res.Table.SetMetric("encodedEval", 1)
			res.Table.AddMetric("decodedBytesSaved", float64(pt.SavedBytes))
			res.Table.SetMetric(fmt.Sprintf("%s_speedup_sel%g", enc, sel), pt.ProcSpeedup)
		}
	}
	return res, nil
}

type e23Arm struct {
	rows     int64
	shipped  sim.Bytes
	media    sim.Bytes
	saved    sim.Bytes
	encSegs  int64
	procBusy sim.VTime
	simTime  sim.VTime
}

// e23Run executes the query on a fresh engine, forcing the encoded
// storage-pushdown variant; eager flips the engine's EagerDecode knob so
// the identical plan runs with decode-then-filter.
func e23Run(q *plan.Query, data *columnar.Batch, eager bool) (e23Arm, error) {
	var arm e23Arm
	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.EagerDecode = eager
	df.Storage.SegmentRows = e22SegmentRows
	if err := loadDataFlow(df, "t", data); err != nil {
		return arm, err
	}
	res, err := runVariant(df, q, "encoded-eval", func(v *plan.Physical) bool { return v.EncodedEval })
	if err != nil {
		return arm, err
	}
	arm.rows = res.Rows()
	arm.shipped = res.Stats.Scan.ShippedBytes
	arm.media = res.Stats.Scan.MediaBytes
	arm.saved = res.Stats.Scan.DecodedBytesSaved
	arm.encSegs = res.Stats.Scan.EncodedEvalSegments
	arm.procBusy = res.Stats.DeviceBusy[fabric.DevStorageProc]
	arm.simTime = res.Stats.SimTime
	return arm, nil
}
