package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// TestSeededInventoryGolden: a seeded width-12 inventory with the device
// dump is byte-identical to the committed golden. The default 4000
// devices per ISP do not fit a 2^12 window, hence the cap.
func TestSeededInventoryGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/seed1_width12.golden")
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-seed", "1", "-width", "12", "-max-devices", "100", "-devices"}
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errb.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("inventory differs from testdata/seed1_width12.golden:\n%s", out.String())
	}
}

// TestWidth20InventoryPinned pins the full device dump of the width-20
// deployment the scan workloads sweep, for three seeds, by sha256: every
// placement, vendor, IID class, loop flag and service set of ~19 K
// devices per seed.
func TestWidth20InventoryPinned(t *testing.T) {
	for seed, want := range map[string]string{
		"1": "c12582f2370f157d29399a4b81dcfade8f59bdbe21fb33fa86ed01106a3d6d23",
		"2": "1f1cf6065e6ab20d2b19d8d1dc78cbfb5bbe6e079e25a811223a1d8cefab4cb5",
		"3": "e8ea18531973cabeb8c776b911ab20c4bede4d626cc88b17a6ae58f4a683148c",
	} {
		args := []string{"-seed", seed, "-width", "20", "-devices"}
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errb.String())
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("seed %s: inventory sha256 %s, want %s", seed, got, want)
		}
	}
}
