package oracle

import (
	"errors"
	"slices"
	"testing"
)

// TestSelectHandWorked pins the rule on a hand-worked 6 x 2 matrix at slack 1
// (limit = 2 x reference):
//
//	k  area  lats     static
//	0  2     0.5, 1   no, yes  -> 0.5 must not set model 0's reference
//	1  2     1, 2     yes      -> feasible
//	2  1     2, 2     yes      -> feasible on the slack boundary; winner
//	3  2     1, 1     yes      -> feasible, ties k1's area at a higher index
//	4  3     1, 2     yes      -> feasible, dominated by k1
//	5  1     3, 1     yes      -> over model 0's limit
//
// References are (1, 1), four points are feasible, and the frontier in
// (area, index) order is k2, k1, k3.
func TestSelectHandWorked(t *testing.T) {
	rows := [][2]Obs{
		{{1, 0.5, false}, {1, 1, true}},
		{{1, 1, true}, {1, 2, true}},
		{{0.5, 2, true}, {0.5, 2, true}},
		{{1, 1, true}, {1, 1, true}},
		{{1.5, 1, true}, {1.5, 2, true}},
		{{0.5, 3, true}, {0.5, 1, true}},
	}
	m, err := Build(len(rows), 2, func(k, i int) (Obs, error) { return rows[k][i], nil })
	if err != nil {
		t.Fatal(err)
	}
	got := m.Select(1)
	if !slices.Equal(got.Ref, []float64{1, 1}) || got.Feasible != 4 ||
		!slices.Equal(got.Frontier, []int{2, 1, 3}) || got.Winner() != 2 {
		t.Errorf("Select = %+v (winner %d), want refs [1 1], 4 feasible, frontier [2 1 3]", got, got.Winner())
	}
	if w := (Selection{}).Winner(); w != -1 {
		t.Errorf("empty selection winner = %d, want -1", w)
	}
}

// TestBuildStopsAtLowestFailingPoint checks Build reports the error of the
// first failing (point, model) pair in index order and evaluates nothing
// after it.
func TestBuildStopsAtLowestFailingPoint(t *testing.T) {
	bad := errors.New("point 2")
	calls := 0
	_, err := Build(5, 3, func(k, i int) (Obs, error) {
		calls++
		if k >= 2 && i == 1 {
			return Obs{}, errors.New("later point")
		}
		if k == 2 && i == 0 {
			return Obs{}, bad
		}
		return Obs{}, nil
	})
	if !errors.Is(err, bad) || calls != 7 {
		t.Errorf("Build error %v after %d calls, want %v after 7", err, calls, bad)
	}
}
