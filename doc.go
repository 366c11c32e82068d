// Package repro is a from-scratch reproduction of "Data Flow
// Architectures for Data Processing on Modern Hardware" (Lerner &
// Alonso, ICDE 2024): a data-flow query engine whose operators are
// placed along a simulated heterogeneous data path — smart storage,
// smart NICs, near-memory accelerators, CXL interconnects — next to the
// CPU-centric Volcano baseline the paper argues against.
//
// The library lives under internal/ (see DESIGN.md for the full system
// inventory). cmd/dfbench regenerates every experiment table in
// EXPERIMENTS.md; bench/ is the wall-clock benchmark of record.
package repro
