package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The oracle for per-query store accounting: eight identical queries
// run at once over a table whose reads retry, fall back and hedge, next
// to one query over a table nothing is wrong with, all on one store.
// Every query's account is its own — the fault-free one reports nothing
// at all — and the accounts sum to the store's lifetime total, counter
// by counter. CI runs this with -race -count=2.
func TestConcurrentQueriesOwnTheirStoreAccounts(t *testing.T) {
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)

	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Workers = 2
	store := df.Storage.Store()
	store.RetryBase = 0
	store.BaseLatency = 200 * time.Microsecond
	df.Storage.SegmentRows = 2000 // 10 segments per table
	// calm is stored once: with no second replica its reads cannot hedge
	// or fall back however a busy host stretches them, so its query has
	// no store work of its own to report.
	for table, replicas := range map[string]int{"calm": 1, "lineitem": 2} {
		store.SetReplicas(replicas)
		if err := df.CreateTable(table, workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := df.Load(table, data); err != nil {
			t.Fatal(err)
		}
	}

	// Faults strike lineitem's objects only. Replica 0 serves them 100 ms
	// late, far past the 20 ms hedge delay: while it ranks first, every
	// read of lineitem hedges.
	inj := faults.New(0xACC7)
	inj.Arm(faults.Point{Kind: faults.TransientRead, Target: "lineitem/", Prob: 0.2})
	inj.Arm(faults.Point{Kind: faults.DegradedDevice, Target: "store/r0/lineitem/", Prob: 1, Severity: 500})
	store.Faults = inj
	pol := resilience.NewPolicy()
	pol.HedgeMinDelay = 20 * time.Millisecond
	// Never deny a retry: a denied one could fail a read, and a failed
	// query's account has nobody to report it.
	pol.Budget = resilience.NewBudget(1, 4096)
	df.EnableResilience(pol)

	query := func(table string) *plan.Query {
		return plan.NewQuery(table).
			WithFilter(workload.SelectivityFilter(cfg, 0.1)).
			WithProjection(workload.LExtendedPrice)
	}
	if before := store.Totals(); before != (storage.ReadStats{}) {
		t.Fatalf("loading charged the store's read account: %+v", before)
	}

	const queries = 8
	accounts := make([]storage.ReadStats, queries+1) // the last is calm's
	var wg sync.WaitGroup
	for i := range accounts {
		table := "lineitem"
		if i == queries {
			table = "calm"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := df.Execute(context.Background(), query(table))
			if err != nil {
				t.Errorf("query %d over %s: %v", i, table, err)
				return
			}
			accounts[i] = res.Stats.Scan.ReadStats
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if calm := accounts[queries]; calm != (storage.ReadStats{}) {
		t.Errorf("the fault-free query was charged its neighbours' work: %+v", calm)
	}
	var sum storage.ReadStats
	for _, a := range accounts {
		sum.Add(a)
	}
	if total := store.Totals(); sum != total {
		t.Errorf("the queries' accounts do not sum to the store's total:\n sum   %+v\n total %+v", sum, total)
	}
	if sum.Retries == 0 || sum.HedgedReads == 0 {
		t.Errorf("the faults never bit, so the sums prove nothing: %+v", sum)
	}
	if got := pol.Budget.Exhausted(); sum.RetryBudgetExhausted != got {
		t.Errorf("accounts report %d budget denials, the budget counted %d", sum.RetryBudgetExhausted, got)
	}
}
