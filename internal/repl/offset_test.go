package repl

import (
	"math/rand"
	"testing"
)

// TestOffsetFilterMinRTT drives the clock-offset filter with a seeded
// follower clock skew and asymmetric, heavy-tailed one-way delays. The
// filtered estimate must stay within minRTT/2 of the true skew (minRTT
// over the filter's window); the last-sample rule must not.
func TestOffsetFilterMinRTT(t *testing.T) {
	const skew = 3_000_000 // follower clock runs 3ms ahead
	rng := rand.New(rand.NewSource(1))
	leg := func() int64 { // 20µs wire time plus exponential scheduling delay
		return 20_000 + int64(rng.ExpFloat64()*200_000)
	}
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	var f offsetFilter
	var rtts []int64
	lastOff := 0
	for step := 0; step < 2000; step++ {
		sendNS := int64(step) * 1_000_000
		out, back := leg(), leg()
		rtt := out + back
		ackWall := sendNS + out + skew
		sample := ackWall - (sendNS + rtt/2)
		est := f.add(rtt, sample)

		rtts = append(rtts, rtt)
		minRTT := rtt
		for _, r := range rtts[max(0, len(rtts)-offsetWindow):] {
			minRTT = min(minRTT, r)
		}
		if err := abs(est - skew); err > minRTT/2 {
			t.Fatalf("step %d: estimate off by %dns, bound minRTT/2 = %dns", step, err, minRTT/2)
		}
		if abs(sample-skew) > minRTT/2 {
			lastOff++
		}
	}
	if lastOff == 0 {
		t.Fatal("the last-sample rule never left the minRTT/2 bound: the delays are too tame to tell the rules apart")
	}
	t.Logf("last-sample rule out of bound on %d/2000 acks", lastOff)
}
