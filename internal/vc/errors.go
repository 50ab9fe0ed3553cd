package vc

import (
	"errors"

	"gftpvc/internal/oscarsd"
)

// Sentinel errors for the reservation control plane. Every failure a
// Client method returns wraps exactly one of these, so callers branch
// with errors.Is instead of string matching:
//
//	res, err := client.Reserve(ctx, req)
//	switch {
//	case errors.Is(err, vc.ErrNoPath):      // admission reject: fall back to IP
//	case errors.Is(err, vc.ErrUnavailable): // daemon down: fall back, retry later
//	}
var (
	// ErrRejected: the daemon refused the operation (a lost admission
	// race, a modify that could not be re-booked, or a request the
	// daemon considers invalid).
	ErrRejected = errors.New("vc: rejected by reservation service")
	// ErrNoPath: no path between the endpoints has the requested
	// bandwidth over the requested window — the paper's admission
	// reject, after which transfers proceed best-effort.
	ErrNoPath = errors.New("vc: no path with requested bandwidth")
	// ErrUnavailable: the daemon could not be reached or the connection
	// died mid-call; the reservation state is unknown.
	ErrUnavailable = errors.New("vc: reservation service unavailable")
	// ErrUnknownCircuit: cancel/modify named a circuit the daemon is not
	// holding (already cancelled, expired, or lost to a daemon restart).
	ErrUnknownCircuit = errors.New("vc: unknown circuit")
	// ErrClosed: the Client has been Closed.
	ErrClosed = errors.New("vc: client closed")
)

// ServerError is a structured rejection from the daemon: the operation
// reached the service and was refused. It unwraps to one of the
// sentinel errors above, chosen by its Code.
type ServerError struct {
	// Op is the protocol operation that was refused.
	Op string
	// Code is the machine-readable error class (an oscarsd.Code*
	// constant).
	Code string
	// Msg is the daemon's human-readable error line, verbatim.
	Msg string
}

func (e *ServerError) Error() string { return "vc: " + e.Op + ": " + e.Msg }

// Unwrap maps the rejection onto its sentinel so errors.Is works; a
// code outside the oscarsd set is a rejection.
func (e *ServerError) Unwrap() error {
	switch e.Code {
	case oscarsd.CodeNoPath:
		return ErrNoPath
	case oscarsd.CodeUnknownCircuit:
		return ErrUnknownCircuit
	}
	return ErrRejected
}
