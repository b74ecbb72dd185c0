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
