package main

import (
	"bytes"
	"encoding/json"
	"net/http"
)

// failure classifies one failed operation; ok is success. Every class
// counts against error_ratio.
type failure string

const (
	ok          failure = ""
	failError   failure = "experiment_error" // an experiment returned an error
	failStatus  failure = "status"           // a reply other than 200
	failBytes   failure = "mismatch"         // output differs from the reference bytes
	failTier    failure = "wrong_tier"       // a reply served by the wrong cache tier
	failCounter failure = "counter"          // an exact count differs from its pinned value
)

// checkOutput classifies one experiment execution against its reference
// output.
func checkOutput(err error, got, want []byte) failure {
	switch {
	case err != nil:
		return failError
	case !bytes.Equal(got, want):
		return failBytes
	}
	return ok
}

// checkCount classifies an exact count against its pinned value.
func checkCount(got, want uint64) failure {
	if got != want {
		return failCounter
	}
	return ok
}

// Cache tier headers of a one-experiment /v1/run reply.
const (
	tierMiss = "hits=0 misses=1"
	tierHit  = "hits=1 misses=0"
)

// checkReply classifies one /v1/run reply. A reply must be 200, carry
// results without experiment errors, come from the expected cache tier,
// and — when want is non-nil — match want byte for byte.
func checkReply(status int, header http.Header, body, want []byte, tier string) failure {
	if status != http.StatusOK {
		return failStatus
	}
	var results []struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &results); err != nil || len(results) == 0 {
		return failBytes
	}
	for _, res := range results {
		if res.Error != "" {
			return failError
		}
	}
	if header.Get("X-Montblanc-Cache") != tier {
		return failTier
	}
	if want != nil && !bytes.Equal(body, want) {
		return failBytes
	}
	return ok
}
