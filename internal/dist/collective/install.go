package collective

import (
	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/dist"
	"repro/internal/transport"
)

// InstallRemoteDistArray attaches to a remote cohort's published
// collective port and installs the attachment into fw as a proxy component
// named instance, providing port "data" of type ccoll.PullPortType. This
// is the collective analogue of dist.InstallSupervisedRemoteOperator: the
// local cohort (a viz tool, a coupled code) connects to "data" through the
// ordinary configuration API, unaware the provider lives in another OS
// process — §6.1's transparency requirement applied to §6.3's collective
// ports.
//
// Supervision state changes are bridged to framework health events on the
// proxy's port (dist.BridgeHealth), so a severed provider surfaces as
// ConnectionDegraded / ConnectionBroken / ConnectionRestored exactly like a
// scalar remote port; opts.Supervisor.OnState, if set, runs afterwards.
func InstallRemoteDistArray(fw *framework.Framework, instance string, tr transport.Transport, addr, name string, consumer array.DataMap, opts Options) (*Import, error) {
	opts.Supervisor = dist.BridgeHealth(fw, instance, "data", opts.Supervisor)
	imp, err := Attach(tr, addr, name, consumer, opts)
	if err != nil {
		return nil, err
	}
	proxy := &dist.ProxyComponent{PortName: "data", PortType: ccoll.PullPortType, Port: imp}
	if err := fw.Install(instance, proxy); err != nil {
		imp.Close() //nolint:errcheck
		return nil, err
	}
	return imp, nil
}
