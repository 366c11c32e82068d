package exec

import (
	"repro/internal/expr"
	"repro/internal/flow"
)

// Worker-pool declarations for the flow runtime (morsel-driven
// parallelism). A stage that implements flow.ParallelStage may be
// replicated across a per-device worker pool; see flow.ParallelStage
// for the contract. The pure per-batch stages share themselves — they
// hold only read-only configuration — while stateful stages hand out
// fresh replicas and rely on the runtime's deterministic round-robin
// routing.
//
// Deliberately serial: CountStage, SortStage, LimitStage and
// FinalAggStage (their retained state is the result, and splitting it
// would change what reaches the sink), EncryptStage/DecryptStage (the
// stream cipher's nonce sequence is order-sensitive), and BuildStage
// (the table itself parallelizes internally; see HashTable.Build).

// NewWorker implements flow.ParallelStage; the predicate is read-only.
func (s *FilterStage) NewWorker() flow.Stage { return s }

// Stateless implements flow.ParallelStage.
func (s *FilterStage) Stateless() bool { return true }

// NewWorker implements flow.ParallelStage; the column list is read-only.
func (s *ProjectStage) NewWorker() flow.Stage { return s }

// Stateless implements flow.ParallelStage.
func (s *ProjectStage) Stateless() bool { return true }

// NewWorker implements flow.ParallelStage; key column and seed are
// read-only.
func (s *HashStage) NewWorker() flow.Stage { return s }

// Stateless implements flow.ParallelStage.
func (s *HashStage) Stateless() bool { return true }

// NewWorker implements flow.ParallelStage: probing only reads the
// pre-built table, so replicas share it.
func (s *HashJoinStage) NewWorker() flow.Stage { return s }

// Stateless implements flow.ParallelStage.
func (s *HashJoinStage) Stateless() bool { return true }

// NewWorker implements flow.ParallelStage: each worker aggregates into
// its own replica (parallel partial aggregation). The round-robin input
// share makes every replica's group state — and any budget spills it
// emits — deterministic; the downstream final aggregation merges the
// replicas' partials exactly as it merges partials from distinct
// devices. Note the state budget applies per replica.
func (s *PreAggStage) NewWorker() flow.Stage {
	return &PreAggStage{
		Agg: expr.NewPartialAggregator(s.Agg.Spec, s.Agg.In, s.Agg.MaxGroups),
		Raw: s.Raw,
	}
}

// Stateless implements flow.ParallelStage.
func (s *PreAggStage) Stateless() bool { return false }
