package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"thymesisflow/internal/chaos"
)

// runMainEnv makes the test binary act as tfbench: tests re-run it with
// this variable set, so they see the real flag parsing and exit status.
const runMainEnv = "TFBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tfbench runs the command in dir with args and returns its stdout,
// stderr and exit status.
func tfbench(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments {
		if len(e.names) == 0 || e.run == nil {
			t.Fatalf("row %v has no name or no run function", e.names)
		}
		for _, n := range e.names {
			if seen[n] {
				t.Errorf("experiment name %q appears twice", n)
			}
			seen[n] = true
		}
	}
}

func TestUsageListsEveryRow(t *testing.T) {
	_, stderr, code := tfbench(t, t.TempDir(), "-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	for _, e := range experiments {
		for _, n := range e.names {
			if !strings.Contains(stderr, n) {
				t.Errorf("usage does not list experiment %q:\n%s", n, stderr)
			}
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	_, stderr, code := tfbench(t, t.TempDir(), "-experiment", "no-such-experiment")
	if code != 2 || !strings.Contains(stderr, `unknown experiment "no-such-experiment"`) {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}

func TestUnknownScenarioListsBothCatalogues(t *testing.T) {
	for _, row := range []string{"chaos", "detect"} {
		_, stderr, code := tfbench(t, t.TempDir(), "-experiment", row, "-scenario", "no-such-scenario")
		if code != 2 {
			t.Fatalf("%s: exit %d, want 2", row, code)
		}
		for _, s := range chaos.Catalogue() {
			if !strings.Contains(stderr, s.Name) {
				t.Errorf("%s: stderr does not list datapath scenario %q", row, s.Name)
			}
		}
		for _, s := range chaos.CPCatalogue() {
			if !strings.Contains(stderr, s.Name) {
				t.Errorf("%s: stderr does not list control-plane scenario %q", row, s.Name)
			}
		}
	}
}

// TestFlagsRowCannotTakeExit2 checks that -out, -scenario, -trace and
// -metrics given to rows that write no report, run no scenarios, record no
// trace or register no metrics are refused before anything runs, not
// ignored or answered with an empty file.
func TestFlagsRowCannotTakeExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig5", "-out", "r.json"},
		{"-experiment", "rack", "-out", "r.json"},
		{"-experiment", "fig5", "-scenario", "crc-burst"},
		{"-experiment", "replay", "-scenario", "crc-burst"},
		{"-experiment", "latency-attr", "-scenario", "crc-burst"},
		{"-experiment", "chaos", "-trace", "t.json"},
		{"-experiment", "chaos", "-metrics", "m.json"},
		{"-experiment", "detect", "-scenario", "replay-storm", "-trace", "t.json", "-metrics", "m.json"},
		{"-experiment", "latency-attr", "-trace", "t.json"},
		{"-experiment", "latency-attr", "-metrics", "m.json"},
		{"-experiment", "fig1", "-trace", "t.json"},
		{"-experiment", "replay", "-trace", "t.json"},
	} {
		dir := t.TempDir()
		stdout, _, code := tfbench(t, dir, args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%v: wrote %s", args, files[0].Name())
		}
	}
}

// TestTraceRowWritesTraceAndMetrics checks that a row that traces and
// registers metrics fills the -trace and -metrics files it is asked for.
func TestTraceRowWritesTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := tfbench(t, dir, "-experiment", "fig5", "-trace", "t.json", "-metrics", "m.json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if strings.Contains(stdout, "trace: 0 events") || !strings.Contains(stdout, "-> t.json") {
		t.Errorf("stdout does not report a non-empty trace:\n%s", stdout)
	}
	if !strings.Contains(stdout, "-> m.json") {
		t.Errorf("stdout does not name m.json:\n%s", stdout)
	}
	tr, err := os.ReadFile(filepath.Join(dir, "t.json"))
	if err != nil || !bytes.Contains(tr, []byte(`"name":"dispatch"`)) {
		t.Errorf("t.json holds no dispatch span (err %v)", err)
	}
	if m, err := os.ReadFile(filepath.Join(dir, "m.json")); err != nil || len(bytes.TrimSpace(m)) <= len("{}") {
		t.Errorf("m.json is empty: %q (err %v)", m, err)
	}
}
