package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildPrograms builds the programs under test from the checkout at root
// into dir.
func buildPrograms(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/coanalyze", "./cmd/bgpd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building coanalyze and bgpd: %v\n%s", err, out.String())
	}
	return nil
}

// exit is one finished run of a program under test.
type exit struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssKB  int64         // peak resident set
	digest string        // sha256 of standard output
	err    error
}

// runProgram runs a batch program to completion, hashing its output.
// env is added to the benchmark's own environment.
func runProgram(ctx context.Context, env []string, prog string, args ...string) exit {
	cmd := exec.CommandContext(ctx, prog, args...)
	cmd.Env = append(os.Environ(), env...)
	h := sha256.New()
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = h, &stderr
	start := time.Now()
	err := cmd.Run()
	e := exit{wall: time.Since(start), digest: hex.EncodeToString(h.Sum(nil))}
	if err != nil {
		e.err = fmt.Errorf("%s: %v: %s", filepath.Base(prog), err, strings.TrimSpace(stderr.String()))
	}
	e.cpu, e.rssKB = usage(cmd.ProcessState)
	return e
}

// usage returns a finished process's CPU time and peak RSS.
func usage(ps *os.ProcessState) (time.Duration, int64) {
	if ps == nil {
		return 0, 0
	}
	var rss int64
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return ps.UserTime() + ps.SystemTime(), rss
}
