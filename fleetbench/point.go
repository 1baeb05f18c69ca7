package main

import (
	"crypto/sha256"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// pointResult is what one point request got back. Times are offsets
// from the start of the phase. Only a digest of a 200 body is kept, so
// the client's memory stays small beside the fleet's.
type pointResult struct {
	code        int
	sum         [32]byte // sha256 of the body
	errBody     []byte   // the body of a non-200 answer
	err         error
	sent, first time.Duration
	done        time.Duration
}

// runClosedLoop sends reqs one at a time on one connection, each as
// soon as the last is answered, until more(elapsed) fails or reqs run
// out. It returns the results of the requests it sent and the wall
// time.
func runClosedLoop(c *http.Client, base string, reqs []pointReq, more func(elapsed time.Duration) bool) ([]pointResult, time.Duration) {
	var res []pointResult
	start := time.Now()
	for i := 0; i < len(reqs) && more(time.Since(start)); i++ {
		var r pointResult
		r.sent = time.Since(start)
		var ttfb time.Duration
		var body []byte
		r.code, body, ttfb, r.err = post(c, base+reqs[i].Path, reqs[i].Body)
		r.done = time.Since(start)
		r.first = r.sent + ttfb
		r.sum = sha256.Sum256(body)
		if r.code != http.StatusOK {
			r.errBody = body
		}
		res = append(res, r)
	}
	return res, time.Since(start)
}

// pointCheck is the verdict on a point run's answers.
type pointCheck struct {
	failed     []bool // per request: error, non-200 or wrong answer
	mismatches int    // 200 answers that differ from the reference
	digest     [32]byte
}

// checkPoint compares every distinct answer with the query core's
// in-process answer and every repeat with its first answer, byte for
// byte. res answers a prefix of reqs.
func checkPoint(reqs []pointReq, res []pointResult) pointCheck {
	reqs = reqs[:len(res)]
	var ck pointCheck
	ck.failed = make([]bool, len(reqs))
	var cold []int
	for i := range reqs {
		if reqs[i].cold(i) {
			cold = append(cold, i)
		}
	}
	// want holds the digest of each cold request's reference answer;
	// an input the query core rejects has none, so any answer is wrong.
	want := make(map[int][32]byte, len(cold))
	var mu sync.Mutex
	parallel(len(cold), func(j int) {
		i := cold[j]
		b, err := reqs[i].answer()
		if err != nil {
			return
		}
		mu.Lock()
		want[i] = sha256.Sum256(b)
		mu.Unlock()
	})
	h := sha256.New()
	for i, r := range res {
		ref, ok := want[reqs[i].First]
		switch {
		case r.err != nil || r.code != http.StatusOK:
			ck.failed[i] = true
		case !ok || r.sum != ref:
			ck.failed[i] = true
			ck.mismatches++
		}
		h.Write(r.sum[:])
	}
	copy(ck.digest[:], h.Sum(nil))
	return ck
}

// parallel runs fn(0..n-1) on two goroutines.
func parallel(n int, fn func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
