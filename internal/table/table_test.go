package table

import (
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator: %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset everywhere.
	off := strings.Index(lines[0], "value")
	if strings.Index(lines[2], "1") != off {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestAddRowf(t *testing.T) {
	tb := New("x", "y", "z")
	tb.AddRowf(3, 1.23456789, float32(2.5))
	out := tb.String()
	if !strings.Contains(out, "1.235") {
		t.Fatalf("float formatting: %s", out)
	}
	if !strings.Contains(out, "2.5") {
		t.Fatalf("float32 formatting: %s", out)
	}
	if lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); len(lines) != 3 {
		t.Fatalf("want header, rule and one row:\n%s", out)
	}
}

func TestRaggedRows(t *testing.T) {
	tb := New("a")
	tb.AddRow("1", "2", "3") // longer than header
	tb.AddRow()              // empty row renders as a blank line
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cells lost: %s", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%q", len(lines), out)
	}
}

func TestNoTrailingSpaces(t *testing.T) {
	tb := New("col1", "col2")
	tb.AddRow("x", "y")
	for _, line := range strings.Split(tb.String(), "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Fatalf("trailing spaces in %q", line)
		}
	}
}
