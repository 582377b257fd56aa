package server

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"willow/internal/telemetry"
)

// TestSnapshotCarriesPolicy pins the policy field of the restart
// contract: a daemon booted with a non-default controller policy
// records the spec string in its snapshot, and a restore rebuilds the
// same controller — byte-identical state at the boundary and a byte-
// identical event stream to completion. Without the field a restored
// integral/mpc run would silently continue under the willow scheme.
func TestSnapshotCarriesPolicy(t *testing.T) {
	for _, pol := range []string{"willow", "integral", "mpc,horizon=2"} {
		spec := testSpec()
		spec.Policy = pol

		d, err := New(spec)
		if err != nil {
			t.Fatalf("policy %q: %v", pol, err)
		}
		d.StepN(60)
		snap := d.Snapshot()
		if snap.Spec.Policy != pol {
			t.Fatalf("snapshot records policy %q, want %q", snap.Spec.Policy, pol)
		}

		r, err := Restore(wireSnapshot(t, snap))
		if err != nil {
			t.Fatal(err)
		}

		sd, _ := json.Marshal(d.State())
		sr, _ := json.Marshal(r.State())
		if !bytes.Equal(sd, sr) {
			t.Fatalf("policy %q: restored state diverges at the snapshot boundary", pol)
		}

		var liveTail, restoredTail telemetry.Buffer
		d.SetSink(&liveTail)
		r.SetSink(&restoredTail)
		if err := d.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeStream(t, liveTail.Events), encodeStream(t, restoredTail.Events)) {
			t.Fatalf("policy %q: post-restore event streams diverge", pol)
		}
		sameResult(t, d.Result(), r.Result(), "policy "+pol)
	}
}

// TestPolicySpecValidatedAtBoot pins the boot-time error: a bad policy
// spec fails Spec.Build with the valid names listed, instead of
// surfacing later from machine construction.
func TestPolicySpecValidatedAtBoot(t *testing.T) {
	spec := testSpec()
	spec.Policy = "bogus"
	if _, err := New(spec); err == nil {
		t.Fatal("bad policy spec accepted at boot")
	} else if !strings.Contains(err.Error(), "valid policies") {
		t.Errorf("error %q does not list the valid policies", err)
	}
}
