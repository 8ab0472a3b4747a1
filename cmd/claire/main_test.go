package main

import (
	"fmt"
	"slices"
	"testing"
)

// TestSectionSelection pins which sections the -table and -figure flags
// print: every section with neither flag, the one named with one flag, the
// union of both with both, and an error, before any training runs, for a
// value that names no section.
func TestSectionSelection(t *testing.T) {
	all := []string{"T1", "T2", "T3", "T4", "T5", "T6", "F2", "F3", "F4"}
	for _, tc := range []struct {
		name          string
		table, figure int
		want          []string // nil: the flags are rejected
	}{
		{"neither", 0, 0, all},
		{"table only", 4, 0, []string{"T4"}},
		{"figure only", 0, 3, []string{"F3"}},
		{"both", 2, 3, []string{"T2", "F3"}},
		{"both, tables print first", 6, 2, []string{"T6", "F2"}},
		{"table out of range", 7, 0, nil},
		{"table zero with figure out of range", 0, 1, nil},
		{"both out of range", 9, 5, nil},
		{"valid table, figure out of range", 2, 5, nil},
		{"negative table", -1, 0, nil},
	} {
		err := checkSelection(tc.table, tc.figure)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: -table %d -figure %d accepted, want an error", tc.name, tc.table, tc.figure)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var got []string
		for _, s := range sections {
			if s.selected(tc.table, tc.figure) {
				got = append(got, label(s))
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: -table %d -figure %d prints %v, want %v", tc.name, tc.table, tc.figure, got, tc.want)
		}
	}
}

// label names a section "T<n>" or "F<n>".
func label(s section) string {
	if s.table != 0 {
		return fmt.Sprintf("T%d", s.table)
	}
	return fmt.Sprintf("F%d", s.figure)
}
