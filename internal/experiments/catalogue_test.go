package experiments

import (
	"slices"
	"testing"
)

// The catalogue is the one experiment list: dfbench's run order and
// -list, and (through -list) CI's byte-determinism set.
func TestCatalogueOrderAndWallClockSet(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E7c", "E8", "E8r", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23",
		"E24", "E25", "E26", "A1", "A2", "A3", "A4", "A5"}
	var ids, wall []string
	for _, e := range Catalogue {
		if slices.Contains(ids, e.ID) {
			t.Errorf("duplicate ID %s", e.ID)
		}
		if e.Desc == "" || e.Run == nil {
			t.Errorf("%s: entry has no description or no Run", e.ID)
		}
		ids = append(ids, e.ID)
		if e.WallClock {
			wall = append(wall, e.ID)
		}
	}
	if !slices.Equal(ids, want) {
		t.Errorf("catalogue order = %v, want %v", ids, want)
	}
	if wantWall := []string{"E19", "E21", "E24", "E25", "E26"}; !slices.Equal(wall, wantWall) {
		t.Errorf("wall-clock experiments = %v, want %v", wall, wantWall)
	}
}

// One entry through the adapter: the catalogue hands back the result's
// own table.
func TestCatalogueRunYieldsTheResultsTable(t *testing.T) {
	i := slices.IndexFunc(Catalogue, func(e Experiment) bool { return e.ID == "E15" })
	tab, err := Catalogue[i].Run(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E15" || len(tab.Rows) == 0 {
		t.Errorf("E15 through the catalogue = %q with %d rows", tab.ID, len(tab.Rows))
	}
}
