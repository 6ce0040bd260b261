package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/trace"
)

// failingCloser succeeds on every write and fails on Close — the shape
// of a full-disk or NFS write-back error that only surfaces at close
// time. A deferred unchecked `f.Close()` would drop that error and
// mcpgen would exit 0 with a truncated trace on disk.
type failingCloser struct {
	wrote    int
	closed   bool
	writeErr error
	closeErr error
}

func (f *failingCloser) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	f.wrote += len(p)
	return len(p), nil
}
func (f *failingCloser) Close() error { f.closed = true; return f.closeErr }

func sampleRecords() []trace.Record {
	return []trace.Record{{TaskID: 1, Kind: "deploy", Submit: 0, End: 2.5, Latency: 2.5}}
}

func TestFinishTraceReportsCloseError(t *testing.T) {
	fc := &failingCloser{closeErr: errors.New("disk quota exceeded")}
	sw := trace.NewJSONLWriter(fc)
	for _, r := range sampleRecords() {
		r := r
		if err := sw.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	err := finishTrace(sw, fc, "out.jsonl")
	if err == nil {
		t.Fatal("Close error was swallowed")
	}
	if !strings.Contains(err.Error(), "disk quota exceeded") {
		t.Fatalf("error %q does not carry the Close failure", err)
	}
	if !fc.closed {
		t.Fatal("writer was not closed")
	}
	if fc.wrote == 0 {
		t.Fatal("no trace bytes written before close")
	}
}

// A write/flush error must win over a close error: the first failure is
// the root cause. The file is still closed.
func TestFinishTraceWriteErrorWinsAndCloses(t *testing.T) {
	fc := &failingCloser{writeErr: errors.New("disk full"), closeErr: errors.New("also broken")}
	sw := trace.NewJSONLWriter(fc)
	for _, r := range sampleRecords() {
		r := r
		sw.Write(&r)
	}
	err := finishTrace(sw, fc, "out.jsonl")
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("got %v, want the flush failure", err)
	}
	if !fc.closed {
		t.Fatal("writer leaked on the error path")
	}
}

func TestFinishTraceSucceedsAndCloses(t *testing.T) {
	fc := &failingCloser{}
	sw := trace.NewCSVWriter(fc)
	for _, r := range sampleRecords() {
		r := r
		if err := sw.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := finishTrace(sw, fc, "out.csv"); err != nil {
		t.Fatal(err)
	}
	if !fc.closed {
		t.Fatal("writer left open")
	}
	if fc.wrote == 0 {
		t.Fatal("no bytes written")
	}
}

func TestOpenTraceRejectsUnknownExtension(t *testing.T) {
	if _, _, err := openTrace(t.TempDir() + "/out.xml"); err == nil ||
		!strings.Contains(err.Error(), "unknown trace extension") {
		t.Fatalf("got %v, want unknown-extension error", err)
	}
}

// The trace's cloud follows -config, -seed and -set: the defaults
// provision with linked clones, and -set director.fastProvisioning=false
// gives the full-clone trace.
func TestSetReachesConfig(t *testing.T) {
	parse := func(args ...string) (core.Config, error) {
		fs := flag.NewFlagSet("mcpgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return parseConfig(fs, args)
	}
	cfg, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Director.FastProvisioning || cfg.Seed != 1 {
		t.Fatalf("defaults: fast=%v seed=%d, want true/1", cfg.Director.FastProvisioning, cfg.Seed)
	}
	cfg, err = parse("-config", "../../scenarios/default.json", "-seed", "7",
		"-set", "director.fastProvisioning=false")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Director.FastProvisioning || cfg.Seed != 7 {
		t.Fatalf("fast=%v seed=%d, want false/7", cfg.Director.FastProvisioning, cfg.Seed)
	}
	if _, err := parse("-set", "director.fastProvisioninq=false"); err == nil {
		t.Fatal("-set with an unknown key was accepted")
	}
	if _, err := parse("-fast=false"); err == nil {
		t.Fatal("-fast was accepted; the full-clone trace is -set director.fastProvisioning=false")
	}
}
