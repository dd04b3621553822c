package main

import "testing"

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int // 0 = error
	}{
		{"64KB", 64 << 10},
		{"2MB", 2 << 20},
		{" 2mb ", 2 << 20},
		{"512B", 512},
		{"4096", 4096},
		{"0KB", 0},
		{"0", 0},
		{"-1MB", 0},
		{"-64", 0},
		{"", 0},
		{"KB", 0},
		{"1.5MB", 0},
		{"64GB", 0},
	} {
		got, err := parseSize(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}
