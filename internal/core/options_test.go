package core

import "testing"

// TestBackendTable pins the invariants the readers of Backends rely on:
// one row per Backend constant, unique display names (heffte's -backend
// looks them up), and plan names on the tunable rows only, each unique
// (a tune plan's "algo" resolves to exactly one backend).
func TestBackendTable(t *testing.T) {
	if len(Backends) != int(BackendBruck)+1 {
		t.Fatalf("%d rows for %d backends", len(Backends), int(BackendBruck)+1)
	}
	backends := map[Backend]bool{}
	names := map[string]bool{}
	plans := map[string]bool{}
	for _, row := range Backends {
		if backends[row.Backend] || names[row.Name] || row.Name == "" {
			t.Errorf("row %+v: backend or display name repeated or empty", row)
		}
		backends[row.Backend], names[row.Name] = true, true
		if row.Backend.Row() != row || row.Backend.String() != row.Name {
			t.Errorf("row %+v: Row/String read %+v", row, row.Backend.Row())
		}
		if row.Tunable != (row.Plan != "") {
			t.Errorf("row %q: tunable=%v but plan name %q", row.Name, row.Tunable, row.Plan)
		}
		if row.Plan != "" && plans[row.Plan] {
			t.Errorf("row %q: plan name %q repeated", row.Name, row.Plan)
		}
		plans[row.Plan] = true
	}
	if got := Backend(len(Backends)).String(); got != "unknown" {
		t.Errorf("out-of-table backend prints %q", got)
	}
}
