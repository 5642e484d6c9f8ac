package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// sourceDir is the directory this package was compiled from: the module
// root the go tool must run in to build cmd/xmap.
func sourceDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(file)
}

// cliParity runs scan_cold's configuration once through the harness and
// once through the shipped cmd/xmap binary and compares the two CSVs
// byte for byte, so the benchmark provably measures the shipped
// pipeline and not a look-alike.
func cliParity(seed int64, sz size, outDir string, stdout io.Writer) error {
	outDir, err := filepath.Abs(outDir)
	if err != nil {
		return err
	}
	bin := filepath.Join(outDir, "xmap-cli")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/xmap")
	build.Dir = sourceDir()
	if msg, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/xmap: %v\n%s", err, msg)
	}
	defer os.Remove(bin)

	e := &env{seed: seed, sz: sz, outDir: outDir, name: "scan_cold"}
	w, _ := workloadByName(e.name)
	if _, err := e.runScan(w.scan(sz), nil); err != nil {
		return err
	}
	ours, err := os.ReadFile(filepath.Join(outDir, e.name+".csv"))
	if err != nil {
		return err
	}

	var stderr bytes.Buffer
	cli := exec.Command(bin,
		"-isp", strconv.Itoa(scanISP), "-width", strconv.Itoa(sz.coldWidth),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-max-devices", strconv.Itoa(sz.maxDevices),
		"-seed", strconv.FormatInt(seed, 10), "-quiet")
	cli.Stderr = &stderr
	theirs, err := cli.Output()
	if err != nil {
		return fmt.Errorf("cmd/xmap: %v\n%s", err, stderr.String())
	}
	if a, b := sha256.Sum256(ours), sha256.Sum256(theirs); a != b {
		return fmt.Errorf("harness CSV (%d bytes, sha256 %x) differs from cmd/xmap's (%d bytes, sha256 %x)",
			len(ours), a, len(theirs), b)
	}
	fmt.Fprintf(stdout, "scan_cold width %d seed %d: harness CSV is byte-identical to cmd/xmap's (%d bytes, sha256 %x)\n",
		sz.coldWidth, seed, len(ours), sha256.Sum256(ours))
	return nil
}
