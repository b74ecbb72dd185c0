package main

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSummarize fuzzes the JSONL reader: whatever the file holds, summarize
// either returns an error or writes a summary that opens with its event
// count — it never panics on a malformed, truncated or hostile line.
func FuzzSummarize(f *testing.F) {
	for _, seed := range []string{
		`{"traceSchemaVersion":1}` + "\n" +
			`{"seq":1,"kind":"job","phase":"begin","name":"capital-cholesky","wallNanos":10}` + "\n" +
			`{"seq":2,"kind":"round","phase":"point","name":"bcast","virtual":0.5,"memoized":1}` + "\n" +
			`{"seq":3,"kind":"job","phase":"end","name":"capital-cholesky","wallNanos":40,"virtual":1.5,"allocBytes":64}` + "\n",
		`{"seq":1,"kind":"sweep","phase":"end","policy":"online","eps":0.125,"error":"canceled"}`,
		`{"traceSchemaVersion":1}`,
		"not json\n\n{\"kind\":\"\"}\n{",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		if err := summarize(bytes.NewReader(data), &out); err != nil {
			return
		}
		if !strings.HasPrefix(out.String(), "trace: ") {
			t.Fatalf("summary does not open with the event count:\n%s", out.String())
		}
	})
}

// TestOldRoundEventsStillCount: traces written before round events lost
// their "memoized" flag still carry it. The field is unknown now and
// ignored, so such a round is counted under its op, not skipped as a
// malformed line.
func TestOldRoundEventsStillCount(t *testing.T) {
	in := `{"traceSchemaVersion":1}` + "\n" +
		`{"seq":1,"kind":"round","phase":"point","name":"bcast","virtual":0.5,"memoized":1}` + "\n" +
		`{"seq":2,"kind":"round","phase":"point","name":"bcast","virtual":0.75}` + "\n" +
		`{"seq":3,"kind":"sweep","phase":"end","policy":"online","eps":0.125,"executed":4,"skipped":9,"memoized":7}` + "\n"
	var out bytes.Buffer
	if err := summarize(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "trace: 3 events (schema 1)\n") {
		t.Errorf("summary opens %q, want 3 events and no malformed line", strings.SplitN(got, "\n", 2)[0])
	}
	if !strings.Contains(got, "\n  bcast               2\n") {
		t.Errorf("rounds table lacks bcast's 2 rounds:\n%s", got)
	}
}
