package main

import (
	"slices"
	"strings"
	"testing"
)

// parseOwned accepts ids in [0, shards) and refuses everything else with
// an error naming the flag at fault.
func TestParseOwned(t *testing.T) {
	for _, tc := range []struct {
		own    string
		shards int
		want   []int
		flag   string // non-empty: the error must name it
	}{
		{"", 4, nil, ""},
		{"0, 3", 4, []int{0, 3}, ""},
		{"2", 2, nil, "-own"},
		{"-1", 2, nil, "-own"},
		{"x", 2, nil, "-own"},
		{"", 0, nil, "-shards"},
	} {
		got, err := parseOwned(tc.own, tc.shards)
		if tc.flag != "" {
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("parseOwned(%q, %d) = %v, %v; want an error naming %s", tc.own, tc.shards, got, err, tc.flag)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseOwned(%q, %d) = %v, %v; want %v", tc.own, tc.shards, got, err, tc.want)
		}
	}
}
