package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
)

// digests.txt holds the SHA-256 of every operation's output, recorded
// from the program as it stood when the benchmark was defined: one line
// "<workload> <variant> <op> <sha256>". The variant is "r<N>" for the
// figures (they draw no random numbers, so the request count per tenant
// is what varies) and "s<N>" for the serve workloads (the seed). A
// mismatch is a failed operation; the file is never re-recorded to make
// a run pass.
//
//go:embed digests.txt
var recordedDigests string

// op is the outcome of one operation: a figure, a serve leg or an
// export. A non-nil err marks it failed.
type op struct {
	id     string
	digest string
	err    error
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// digestWriter counts and hashes what an exporter writes, so exports
// are checked without being kept in memory.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (w *digestWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *digestWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

// gate checks operation digests. With recorded digests for the run's
// variant it compares against them; otherwise it checks that every pass
// of the run reproduces the first pass byte for byte.
type gate struct {
	want     map[string]string // op id → digest; nil when unrecorded
	first    map[string]string // op id → the run's first digest, when unrecorded
	attempts int
	failures []string
}

// parseDigests reads digests.txt into "<workload> <variant>" → op id →
// digest.
func parseDigests(text string) (map[string]map[string]string, error) {
	out := map[string]map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 4 || len(f[3]) != 64 {
			return nil, fmt.Errorf("digests.txt:%d: want \"workload variant op sha256\"", line)
		}
		key := f[0] + " " + f[1]
		if out[key] == nil {
			out[key] = map[string]string{}
		}
		if _, dup := out[key][f[2]]; dup {
			return nil, fmt.Errorf("digests.txt:%d: duplicate %s %s", line, key, f[2])
		}
		out[key][f[2]] = f[3]
	}
	return out, sc.Err()
}

// newGate builds the gate for one workload variant from a digest table.
func newGate(table map[string]map[string]string, workload, variant string) *gate {
	return &gate{want: table[workload+" "+variant], first: map[string]string{}}
}

// recorded reports whether the gate compares against recorded digests.
func (g *gate) recorded() bool { return g.want != nil }

// check gates operations and returns how many failed. whole marks the
// ops as one complete pass, which must produce every recorded op.
func (g *gate) check(ops []op, whole bool) int {
	failed := 0
	fail := func(msg string) {
		failed++
		g.failures = append(g.failures, msg)
	}
	seen := map[string]bool{}
	for _, o := range ops {
		g.attempts++
		seen[o.id] = true
		if o.err != nil {
			fail(fmt.Sprintf("%s: %v", o.id, o.err))
			continue
		}
		switch ref, ok := g.reference(o.id, o.digest); {
		case !ok:
			fail(fmt.Sprintf("%s: no recorded digest", o.id))
		case o.digest != ref:
			fail(fmt.Sprintf("%s: digest %.12s, want %.12s", o.id, o.digest, ref))
		}
	}
	for id := range g.want {
		if whole && !seen[id] {
			g.attempts++
			fail(fmt.Sprintf("%s: recorded but not produced", id))
		}
	}
	return failed
}

// reference returns the digest op id must match.
func (g *gate) reference(id, digest string) (string, bool) {
	if g.want != nil {
		ref, ok := g.want[id]
		return ref, ok
	}
	if ref, ok := g.first[id]; ok {
		return ref, true
	}
	g.first[id] = digest
	return digest, true
}
