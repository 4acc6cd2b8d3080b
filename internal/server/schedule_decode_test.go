package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// jsonDecodeSchedule is the reference decodeScheduleRequest must match:
// json.Decoder with DisallowUnknownFields, as the handler used throughout.
func jsonDecodeSchedule(body []byte) (ScheduleRequest, error) {
	var req ScheduleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// clientScheduleBodies are the request shapes clients in this repository
// send: docs/api.md's curl bodies, the json.dumps body of
// scripts/schedloadtest.py, and radiobench's compact body with a
// full-width seed.
var clientScheduleBodies = []string{
	`{"family": "gnp", "n": 256, "seed": 7}`,
	`{"n": 4, "edges": [[0,1],[1,2],[0,2],[2,3]], "seed": 1}`,
	`{"family": "gnp", "n": 64, "seed": 3}`,
	`{"n":256,"seed":18446744073709551615,"edges":[[0,1],[0,7],[1,2],[3,255]]}`,
}

// TestPlainScheduleShapes checks that every client shape takes the direct
// parse rather than the encoding/json fallback, and decodes as
// encoding/json decodes it. A change to the request fields that drops
// these shapes off the fast path fails here.
func TestPlainScheduleShapes(t *testing.T) {
	for _, body := range clientScheduleBodies {
		got, ok := parsePlainSchedule([]byte(body))
		if !ok {
			t.Errorf("%s: not parsed as a plain body", body)
			continue
		}
		want, err := jsonDecodeSchedule([]byte(body))
		if err != nil {
			t.Fatalf("%s: json.Decoder: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed %#v, json.Decoder gives %#v", body, got, want)
		}
	}
}

// FuzzDecodeScheduleRequest checks decodeScheduleRequest against
// json.Decoder: every body the plain-shape parser accepts, json.Decoder
// accepts too with a reflect.DeepEqual request (nil and empty edges
// included), and every body decodes to json.Decoder's request or fails
// with its error.
func FuzzDecodeScheduleRequest(f *testing.F) {
	for _, tc := range scheduleBadRequests {
		f.Add([]byte(tc.body))
	}
	for _, body := range clientScheduleBodies {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{"n":256,"seed":18446744073709551616,"edges":[[0,1]]}`,
		`{"n": 9223372036854775807}`,
		`{"n": 9223372036854775808}`,
		`{"n": -9223372036854775808}`,
		`{"n": -9223372036854775809}`,
		`{"n": -0}`, `{"n": 1e2}`, `{"n": 1.0}`, `{"n": 01}`, `{"n": - 1}`,
		`{"N": 3}`, `{"n": 3, "n": 4}`,
		`null`, `{"n": null}`, `{"algorithm": null, "n": 2}`, `{"n": 2, "edges": null}`,
		`{"n": 2, "edges": [[1]]}`, `{"n": 4, "edges": [[1,2,3]]}`, `{"n": 2, "edges": []}`,
		`{}`, ` { "n" : 3 , "edges" : [ [ 0 , 1 ] , [ 1 , 2 ] ] } `,
		`{"algorithm": "linear", "n": 3}`, `{"algorithm": "line\u0061r", "n": 3}`,
		`{"family": "gn\"p", "n": 3}`, `{"family": "gnpé", "n": 3}`, "{\"family\": \"g\tnp\", \"n\": 3}",
		`{"n": 3} {"n": 4}`, `{"n": 3}x`, "{\"n\": 3}\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := jsonDecodeSchedule(body)
		if plain, ok := parsePlainSchedule(body); ok {
			if wantErr != nil {
				t.Fatalf("plain parser accepts %q, json.Decoder rejects it: %v", body, wantErr)
			}
			if !reflect.DeepEqual(plain, want) {
				t.Fatalf("%q: plain parser gives %#v, json.Decoder %#v", body, plain, want)
			}
		}
		got, err := decodeScheduleRequest(body)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%q: error %q, json.Decoder gives %q", body, errText(err), errText(wantErr))
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, json.Decoder gives %#v", body, got, want)
		}
	})
}
