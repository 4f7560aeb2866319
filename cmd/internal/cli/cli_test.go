package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseInt is the axis value parser the tests drive Axis with.
func parseInt(s string) (int, error) {
	if s == "bad" {
		return 0, errors.New("not a number")
	}
	return strconv.Atoi(s)
}

func TestAxis(t *testing.T) {
	auto := []int{7, 8, 9}
	for _, tc := range []struct {
		name  string
		spec  string
		count Count
		auto  []int
		want  []int
	}{
		{"single entry", "3", Any, nil, []int{3}},
		{"single entry, serving run", "3", One, auto, []int{3}},
		{"spaces and empty entries", " 1, ,2 ,,3, ", Any, nil, []int{1, 2, 3}},
		{"empty list takes the default", "", Any, nil, nil},
		{"auto expands to the auto set", "auto", Some, auto, auto},
		{"auto expands in place", "1, auto", Some, auto, []int{1, 7, 8, 9}},
	} {
		got, err := Axis("n", tc.spec, tc.count, tc.auto, parseInt)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s: Axis(%q) = %v, %v; want %v", tc.name, tc.spec, got, err, tc.want)
		}
	}
}

func TestAxisRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  string
		count Count
		auto  []int
		want  string // substring of the error
	}{
		{"bad entry is named", "1,bad,3", Any, nil, `bad -n entry "bad": not a number`},
		{"auto without an auto set goes to parse", "auto", Any, nil, `bad -n entry "auto"`},
		{"serving run rejects a list", "1,2", One, nil, `-n takes exactly one value without -plan`},
		{"serving run rejects auto", "auto", One, []int{7}, `-n auto only applies with -plan`},
		{"serving run rejects an empty list", " , ", One, nil, `-n takes exactly one value`},
		{"plan axis rejects an empty list", "", Some, nil, `-n needs at least one value`},
	} {
		got, err := Axis("n", tc.spec, tc.count, tc.auto, parseInt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Axis(%q) = %v, %v; want an error containing %q", tc.name, tc.spec, got, err, tc.want)
		}
	}
}

func TestCheckRequires(t *testing.T) {
	rows := []Require{
		{Need: "-on", Met: false, Flags: []string{"b", "c"}},
		{Need: "-other", Met: true, Flags: []string{"a"}},
	}
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-a", "1"}, ""},
		{[]string{"-c", "1", "-b", "1"}, "-b requires -on"}, // first in name order
		{[]string{"-c", "0"}, "-c requires -on"},            // explicitly set counts, even at the default
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Int("a", 0, "")
		fs.Int("b", 0, "")
		fs.Int("c", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := CheckRequires(fs, rows)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%v: got %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestCheckNumeric(t *testing.T) {
	if err := CheckNumeric(30, 0, 0); err != nil {
		t.Errorf("valid values rejected: %v", err)
	}
	for _, tc := range []struct {
		horizon, timeout, cv float64
		flag                 string
	}{
		{0, 0, 0, "-horizon"},
		{math.NaN(), 0, 0, "-horizon"},
		{30, -1, 0, "-client-timeout"},
		{30, 0, -0.1, "-straggler-cv"},
	} {
		if err := CheckNumeric(tc.horizon, tc.timeout, tc.cv); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" must be") {
			t.Errorf("CheckNumeric(%v, %v, %v) = %v; want a %s rejection", tc.horizon, tc.timeout, tc.cv, err, tc.flag)
		}
	}
}
