package main

import (
	"reflect"
	"testing"
)

func TestParseDevices(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"1000", []int{1000}, true},
		{"100,1000", []int{100, 1000}, true},
		{" 8 , 32 ", []int{8, 32}, true},
		{"", nil, false},
		{"0", nil, false},
		{"-5", nil, false},
		{"ten", nil, false},
		{"10,", nil, false},
	}
	for _, c := range cases {
		got, err := parseDevices(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseDevices(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseDevices(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-exp", "scale", "-scale", "galactic"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-exp", "scale", "-devices", "0"}); err == nil {
		t.Fatal("zero device count accepted")
	}
	if err := run([]string{"-exp", "scale", "-state-codec", "float8"}); err == nil {
		t.Fatal("unknown state codec accepted")
	}
	if err := run([]string{}); err == nil {
		t.Fatal("missing -exp accepted")
	}
	if err := run([]string{"-exp", "scale", "-workers", "-2"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
	if err := run([]string{"-exp", "scale", "-teachers-per-iter", "-1"}); err == nil {
		t.Fatal("negative -teachers-per-iter accepted")
	}
	if err := run([]string{"-exp", "scale", "-teacher-sampling", "psychic"}); err == nil {
		t.Fatal("unknown -teacher-sampling accepted")
	}
	// Flag validation must run before any experiment work, so the bad
	// combination errors even with an otherwise valid experiment.
	if err := run([]string{"-exp", "table1", "-workers", "-1"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
}
