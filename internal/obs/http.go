package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"time"
)

// RequestIDHeader is the header a client may use to supply its own request
// id; the same header carries the id back on every response.
const RequestIDHeader = "X-Request-ID"

type ctxKey int

const requestIDKey ctxKey = iota

// NewRequestID returns a fresh 16-hex-digit request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to a
		// constant rather than propagate an error through logging paths.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID stores a request id in the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID extracts the request id from the context ("" if absent).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter records the response status and size for logging/metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer when it supports flushing, so
// streaming handlers keep working behind the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPMetrics is the standard per-route HTTP instrumentation: a request
// counter labeled by route/method/status and a latency histogram labeled by
// route. Create one per Registry with NewHTTPMetrics.
type HTTPMetrics struct {
	requests *CounterVec
	latency  *HistogramVec
	inflight *Gauge
}

// NewHTTPMetrics registers the HTTP metric families on r under the given
// namespace prefix (e.g. "fastlsa" -> fastlsa_http_requests_total).
func NewHTTPMetrics(r *Registry, namespace string) *HTTPMetrics {
	prefix := ""
	if namespace != "" {
		prefix = namespace + "_"
	}
	return &HTTPMetrics{
		requests: r.CounterVec(prefix+"http_requests_total",
			"HTTP requests by route, method and status code.",
			"route", "method", "code"),
		latency: r.HistogramVec(prefix+"http_request_duration_seconds",
			"HTTP request latency by route.", nil, "route"),
		inflight: r.Gauge(prefix+"http_requests_in_flight",
			"HTTP requests currently being served."),
	}
}

// RequestSample summarises one completed request for observer hooks, such
// as a server's incident capture.
type RequestSample struct {
	Route, Method, RequestID string
	Status                   int
	Duration                 time.Duration
}

// MiddlewareObserved wraps h with request-id propagation, structured access
// logging, per-route metrics and a completion hook. route is the registered
// pattern label (passed explicitly — patterns are not recoverable from the
// request under go1.22); logger may be nil to disable access logs; m may be
// nil to disable metrics. onDone (when non-nil) receives one RequestSample
// after every request, after the status and latency are final. The hook
// runs on the request goroutine — keep it cheap.
func MiddlewareObserved(route string, logger *slog.Logger, m *HTTPMetrics, onDone func(RequestSample), h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(WithRequestID(r.Context(), id))

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if m != nil {
			m.inflight.Add(1)
		}
		h.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if m != nil {
			m.inflight.Add(-1)
			m.requests.With(route, r.Method, statusText(sw.status)).Inc()
			m.latency.With(route).Observe(elapsed.Seconds())
		}
		if onDone != nil {
			onDone(RequestSample{
				Route: route, Method: r.Method, RequestID: id,
				Status: sw.status, Duration: elapsed,
			})
		}
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", id),
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

// statusText formats a status code as a metric label without fmt overhead
// on the common path.
func statusText(code int) string {
	switch code {
	case 200:
		return "200"
	case 202:
		return "202"
	case 400:
		return "400"
	case 404:
		return "404"
	case 422:
		return "422"
	case 503:
		return "503"
	}
	return itoa(code)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 && i > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
