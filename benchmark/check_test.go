package main

import (
	"encoding/json"
	"math"
	"testing"
)

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSimVerifierCatchesTamperedTFLOPs(t *testing.T) {
	items := hotPool(1)
	v := newSimVerifier(items)
	good := items[0].want
	good.Key = "k1"
	if err := v.check(0, marshal(t, good)); err != nil {
		t.Fatalf("reference response rejected: %v", err)
	}
	bad := good
	bad.TFLOPs = math.Nextafter(good.TFLOPs, math.Inf(1))
	if err := v.check(0, marshal(t, bad)); err == nil {
		t.Fatal("a response with tampered tflops passed the check")
	}
}

func TestSimVerifierPinsKeyPerBody(t *testing.T) {
	items := hotPool(1)
	v := newSimVerifier(items)
	resp := items[3].want
	resp.Key = "k1"
	if err := v.check(3, marshal(t, resp)); err != nil {
		t.Fatal(err)
	}
	resp.Cached = true
	if err := v.check(3, marshal(t, resp)); err != nil {
		t.Fatalf("cached copy with the same key rejected: %v", err)
	}
	resp.Key = "k2"
	if err := v.check(3, marshal(t, resp)); err == nil {
		t.Fatal("a second key for the same body passed the check")
	}
}

func TestExploreStreamHasNoRepeatedKeysAndFixedMix(t *testing.T) {
	jobs := exploreStream(3, 1000)
	bodies := map[string]bool{}
	count := map[string]int{}
	for _, j := range jobs {
		if bodies[string(j.body)] {
			t.Fatalf("repeated body %s", j.body)
		}
		bodies[string(j.body)] = true
		count[j.class]++
	}
	if count[classBudget] != 600 || count[classGrid] != 300 || count[classSurrogate] != 100 {
		t.Fatalf("class mix %v; want 600/300/100", count)
	}
}
