package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequest decodes arbitrary bytes as a POST /v1/jobs body does
// (the first JSON value, unknown fields rejected) and normalizes the
// request. Neither may panic. A request that Normalize accepts is in
// canonical form: normalizing it again, or its JSON encoding as the WAL
// persists it, gives the same cache key.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		`{"kind":"solve","algorithm":"cd","n":64,"seed":1}`,
		`{"kind":"solve","algorithm":"nocd","family":"grid","n":64,"trials":2,"seed":7,"engine":"scalar"}`,
		`{"kind":"solve","algorithm":"cd","family":"grid","n":1024,"trials":64,"engine":"lockstep","rows":true,"trialOffset":3}`,
		`{"kind":"solve","algorithm":"cd","n":128,"faults":{"loss":0.2,"crash":{"rate":0.01,"restartAfter":16}}}`,
		`{"kind":"solve","algorithm":"cd","n":128,"faults":{}}`,
		`{"kind":"solve","algorithm":"cd","n":8,"engine":"auto","experiment":"E2","quick":true}`,
		`{"kind":"solve","algorithm":"cd","family":"gnp","n":8,"engine":"lockstep"}`,
		`{"kind":"experiment","experiment":"e8","quick":true,"seed":1,"n":5,"algorithm":"cd"}`,
		`{"kind":"experiment","experiment":"E99"}`,
		`{"kind":"solve","algorithm":"quantum","n":8}`,
		`{"kind":"solve","algorithm":"cd","n":0}`,
		`{"kind":"solve","algorithm":"cd","n":4,"trialOffset":-1}`,
		`{"kind":"solve","algorithm":"cd","n":4,"bogus":1}`,
		`{"kind":"solve","algorithm":"cd","n":4,"seed":18446744073709551615}`,
		`{"kind":"solve","algorithm":"cd","n":4} trailing`,
		`{"kind":"bake"}`, `{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		if err := req.Normalize(); err != nil {
			return
		}
		key := req.Key()
		again := req
		if err := again.Normalize(); err != nil {
			t.Fatalf("%q: normalized request %+v fails Normalize: %v", body, req, err)
		}
		if got := again.Key(); got != key {
			t.Fatalf("%q: normalizing twice changes the key: %+v then %+v", body, req, again)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var replayed JobRequest
		if err := json.Unmarshal(enc, &replayed); err != nil {
			t.Fatalf("%s: encoded request does not decode: %v", enc, err)
		}
		if err := replayed.Normalize(); err != nil {
			t.Fatalf("%s: encoded request fails Normalize: %v", enc, err)
		}
		if got := replayed.Key(); got != key {
			t.Fatalf("%s: decoded encoding has key %s, want %s", enc, got, key)
		}
	})
}
