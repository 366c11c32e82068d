package storage

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// TestReadWalkAccounting pins what one Read settles: the bytes it
// returns, its account field for field, the lifetime total (which starts
// at zero, so it must equal the account), the main Meter's delta, and
// whether the result is the stored replica (copyOut off) or a copy. The
// expected values are fixed numbers, so any change to how the replica
// walk verifies, charges or repairs shows here. The hedged cases use a
// hedge delay of a second and a primary that fails at once, so no hedge
// launches and no timing enters the test.
func TestReadWalkAccounting(t *testing.T) {
	payload := []byte("replica walk payload")
	n := sim.Bytes(len(payload))
	hedging := func(o *ObjectStore) {
		pol := resilience.NewPolicy()
		pol.HedgeMinDelay = time.Second
		o.svc.Resilience = pol
	}
	lost := func(o *ObjectStore) { o.FailReplica(0) }
	corrupt := func(o *ObjectStore) {
		o.Verify = verifyAgainst(payload)
		o.WriteBack = true
		o.CorruptReplica("k", 0)
	}
	lostAcct := ReadStats{ReplicaFallbacks: 1, RetryBytes: n, LostReads: 1}
	corruptAcct := ReadStats{ReplicaFallbacks: 1, RetryBytes: n,
		CorruptReads: 1, CorruptOps: 1, CorruptBytes: n, ReadRepairs: 1, RepairBytes: n}
	cases := []struct {
		name     string
		replicas int
		setup    []func(*ObjectStore)
		acct     ReadStats
		ops      int64
		bytes    sim.Bytes
	}{
		{name: "one replica, clean", replicas: 1, ops: 1, bytes: n},
		{name: "replica 0 lost", replicas: 3, setup: []func(*ObjectStore){lost},
			acct: lostAcct, ops: 2, bytes: n},
		{name: "replica 0 corrupt", replicas: 3, setup: []func(*ObjectStore){corrupt},
			acct: corruptAcct, ops: 1, bytes: n},
		{name: "one transient fault", replicas: 2, setup: []func(*ObjectStore){func(o *ObjectStore) {
			o.RetryBase = 0
			o.svc.Faults = faults.New(1)
			o.svc.Faults.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1, Budget: 1})
		}}, acct: ReadStats{Retries: 1, RetryBytes: n}, ops: 2, bytes: n},
		{name: "hedging, replica 0 lost", replicas: 3, setup: []func(*ObjectStore){hedging, lost},
			acct: lostAcct, ops: 2, bytes: n},
		{name: "hedging, replica 0 corrupt", replicas: 3, setup: []func(*ObjectStore){hedging, corrupt},
			acct: corruptAcct, ops: 1, bytes: n},
	}
	for _, tc := range cases {
		for _, copyOut := range []bool{false, true} {
			o := NewObjectStore(nil)
			o.SetReplicas(tc.replicas)
			o.Put("k", payload)
			for _, f := range tc.setup {
				f(o)
			}
			ops0, bytes0, total0 := o.Meter.Ops(), o.Meter.Bytes(), o.Totals()
			var acct ReadStats
			got, err := o.Read(context.Background(), "k", copyOut, &acct)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("%s, copyOut %v: Read = %q, %v; want the payload", tc.name, copyOut, got, err)
				continue
			}
			if acct != tc.acct {
				t.Errorf("%s, copyOut %v: account\n got %+v\nwant %+v", tc.name, copyOut, acct, tc.acct)
			}
			if total := o.Totals(); total0 != (ReadStats{}) || total != acct {
				t.Errorf("%s, copyOut %v: Totals went from %+v to %+v, account %+v", tc.name, copyOut, total0, total, acct)
			}
			if ops, b := o.Meter.Ops()-ops0, o.Meter.Bytes()-bytes0; ops != tc.ops || b != tc.bytes {
				t.Errorf("%s, copyOut %v: main Meter moved %d ops, %d bytes; want %d, %d",
					tc.name, copyOut, ops, b, tc.ops, tc.bytes)
			}
			if aliased := aliasesAReplica(o, "k", got); aliased == copyOut {
				t.Errorf("%s, copyOut %v: result aliases a stored replica: %v", tc.name, copyOut, aliased)
			}
		}
	}
}

// aliasesAReplica reports whether b is the backing array of one of the
// replicas stored under key.
func aliasesAReplica(o *ObjectStore, key string, b []byte) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, c := range o.objects[key] {
		if len(c.data) > 0 && len(b) > 0 && &c.data[0] == &b[0] {
			return true
		}
	}
	return false
}
