package wire

import (
	"bufio"
	"bytes"
	"slices"
	"testing"
)

// FuzzReadHandshake feeds arbitrary bytes to the preamble parser, the first
// thing a server reads from any peer. It must never panic, must accept
// exactly "VFLM/6 gob mux" and "VFLM/6 json mux", and may name a codec to
// refuse in only for a retired "VFLM/N <codec>" spelling it rejected.
func FuzzReadHandshake(f *testing.F) {
	for _, seed := range []string{
		// The one preamble, in both codecs.
		"VFLM/6 gob mux\n",
		"VFLM/6 json mux\n",
		// Every retired serial spelling: v2–v6 without the mux token.
		"VFLM/2 gob\n", "VFLM/2 json\n",
		"VFLM/3 gob\n", "VFLM/3 json\n",
		"VFLM/4 gob\n", "VFLM/4 json\n",
		"VFLM/5 gob\n", "VFLM/5 json\n",
		"VFLM/6 gob\n", "VFLM/6 json\n",
		// Near misses and garbage.
		"VFLM/1 gob\n", "VFLM/7 json\n", "VFLM/7 json mux\n",
		"VFLM/5 json mux\n", "VFLM/6 xml mux\n", "VFLM/6 xml\n",
		"VFLM/6 gob mux extra\n", "VFLM/6  gob mux\n", "VFLM/6 gob mux\r\n",
		"VFLM/ gob\n", "VFLM/-1 gob\n", "vflm/6 gob mux\n",
		"VFLM/6 gob mux", // no newline
		"GET / HTTP/1.1\r\n\r\n",
		"",
		"VFLM/2 " + string(bytes.Repeat([]byte("x"), 100)) + "\n",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		codec, refuse, err := readHandshake(bufio.NewReader(bytes.NewReader(data)))
		line, _, _ := bytes.Cut(data, []byte("\n"))
		if err == nil {
			if refuse != "" {
				t.Fatalf("%q accepted with a refusal codec %q", data, refuse)
			}
			want := "VFLM/6 " + codec + " mux"
			if !slices.Contains(CodecNames(), codec) || string(line) != want || !bytes.Contains(data, []byte("\n")) {
				t.Fatalf("%q accepted as codec %q", data, codec)
			}
			return
		}
		if codec != "" {
			t.Fatalf("%q rejected (%v) but named codec %q", data, err, codec)
		}
		if refuse != "" {
			if !slices.Contains(CodecNames(), refuse) {
				t.Fatalf("%q refused in unknown codec %q", data, refuse)
			}
			if !bytes.HasPrefix(line, []byte("VFLM/")) || bytes.HasSuffix(line, []byte(" mux")) {
				t.Fatalf("%q is not a retired spelling but got a refusal in %q", data, refuse)
			}
		}
	})
}
