"""The paper's worked examples, run end to end by ``ssmfrac reproduce``
and by the acceptance suite.

Each function writes nothing and returns a namespace: ``checks``, the
pass/fail records of ``checks.json``; ``tables``, {CSV file name: (header,
rows of raw values)}; and the raw results its docstring names. Other
modules are called through their module attributes so that run-time
wrappers of those attributes see every call.
"""

from types import SimpleNamespace

import numpy as np

from . import dictionary as dct, dynamics, fit, normalform, spectrum
from .trajectory import Trajectory


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def planar():
    """Fractional, integer, DMD and POD models of the planar heteroclinic
    reduced dynamics; raw result ``vf_error`` (fractional model)."""
    a, b, c = 1.0, 1.0, 2.5
    part = spectrum.SpectralPartition(kind="flow", lam=(-b,), kappa=(-c * a,))
    built = dct.dictionary_flow_1d(part, K=5)
    vf = dynamics.exact_reduced_planar(a, b, c)
    sys_ = dynamics.FlowSystem(dim=1, f=lambda t, x: vf(x), name="planar")

    grid = np.linspace(0.0, 4.0, 400)
    train = [dynamics.integrate(sys_, [0.95], (0.0, 4.0), tol=1e-12,
                                t_eval=grid)]
    tests = [dynamics.integrate(sys_, [x0], (0.0, 4.0), tol=1e-12,
                                t_eval=grid)
             for x0 in (0.3, 0.45, 0.6, 0.75, 0.9)]

    frac = fit.fit_reduced_flow(train, built, ridge=1e-12)
    integer = fit.fit_reduced_flow(train, dct.integer_dictionary(1, 5),
                                   ridge=1e-12)
    # DMD: the one-step linear propagator, the degree-1 integer map fit
    dmd = fit.fit_reduced_map(
        Trajectory(times=np.arange(len(train[0]), dtype=float),
                   states=train[0].states, kind="map"),
        dct.integer_dictionary(1, 1)).coefficients.T
    pod = fit.pod_reduced_model_planar(a, b, c, K=0.95764)

    rows = []                   # ic, then each model's mean relative error
    for traj in tests:
        errors = []
        for model in (frac, integer):
            pred = fit.predict(model, traj.states[0], traj.times, tol=1e-10)
            errors.append(fit.relative_error(traj.states, pred.states)[1])
        dmd_states = [traj.states[0]]
        for _ in range(len(traj) - 1):
            dmd_states.append(dmd @ dmd_states[-1])
        errors.append(fit.relative_error(traj.states, np.array(dmd_states))[1])
        pod_sys = dynamics.FlowSystem(
            dim=1, f=lambda t, x: pod["quadratic"] * x ** 2
            + pod["linear"] * x)
        pod_pred = dynamics.integrate(pod_sys, traj.states[0],
                                      (traj.times[0], traj.times[-1]),
                                      tol=1e-10, t_eval=traj.times)
        errors.append(fit.relative_error(traj.states, pod_pred.states)[1])
        rows.append((float(traj.states[0, 0]), *errors))

    xg = np.linspace(0.02, 0.95, 200)
    true_vf = vf(xg)
    pred_vf = frac.rhs(xg[:, None])[:, 0]
    vf_err = float(np.max(np.abs(true_vf - pred_vf))
                   / np.max(np.abs(true_vf)))

    worst_frac = max(e_frac for _, e_frac, *_ in rows)
    return SimpleNamespace(
        checks=[
            _check("fractional error <= integer error on every test",
                   all(e_frac <= e_int for _, e_frac, e_int, *_ in rows),
                   {"rows": len(rows)}),
            _check("fractional mean relative error <= 5%",
                   worst_frac <= 0.05, {"worst": worst_frac}),
            _check("vector-field error vs exact model < 1e-2",
                   vf_err < 1e-2, {"error": vf_err})],
        tables={"error_table.csv": (("ic", "fractional", "integer", "dmd",
                                     "pod"), rows)},
        vf_error=vf_err)


def mixed3d():
    """Integer graph fit of the mixed-mode 3D system's invariant surface;
    raw result ``coefficients``, {powers: coefficient}."""
    sys_ = dynamics.testbed("mixed3d")
    a = sys_.params["a"]
    grid = np.linspace(0.0, 8.0, 120)
    trajs = [dynamics.integrate(sys_, np.array([x1, 0.0, a * x1 ** 2]),
                                (0.0, 8.0), tol=1e-11, t_eval=grid)
             for x1 in (0.4, -0.5)]
    built = dct.integer_dictionary(2, 3)
    graph = fit.fit_graph(trajs, built, master_coords=[0, 1],
                          slaved_coords=[2])
    coeff_map = {m.multi_index: float(c) for m, c in
                 zip(built.monomials, graph.coefficients.ravel())}
    lead = coeff_map.get((2, 0), 0.0)
    others = max(abs(c) for p, c in coeff_map.items() if p != (2, 0))
    return SimpleNamespace(
        checks=[
            _check("x1^2 coefficient within 1e-3 of 0.5",
                   abs(lead - a) < 1e-3, {"coefficient": lead}),
            _check("all other coefficients < 1e-3",
                   others < 1e-3, {"largest": others})],
        tables={"graph_coefficients.csv": (("powers", "coefficient"),
                                           sorted(coeff_map.items()))},
        coefficients=coeff_map)


def shaw_pierre_unforced():
    """Eigenvalues and order-7 linearization of the unforced oscillator
    chain; raw results ``system`` (the diagonalized PolySystem), ``V`` (its
    eigenvector matrix), ``transform`` and ``residual`` (conjugacy)."""
    A = dynamics.shaw_pierre_matrix()
    eigs = np.linalg.eigvals(A)
    eigs = eigs[np.argsort(np.abs(eigs.real))]
    refs = [complex(-0.0741, 1.0027), complex(-0.3759, 1.6812)]
    err = max(min(abs(z - r) for z in eigs) for r in refs)

    gamma, m = 0.5, 1.0
    ps, V = normalform.PolySystem.from_real_system(
        A, {(3, 0, 0, 0): np.array([0.0, -gamma / m, 0.0, 0.0])}, K=7)
    transform = normalform.linearize(ps, 7)
    resid = normalform.conjugacy_residual(transform, ps)
    return SimpleNamespace(
        checks=[
            _check("eigenvalues match reference values to 1e-3",
                   err < 1e-3, {"max_error": err}),
            _check("order-7 linearization residual < 1e-8",
                   resid < 1e-8, {"residual": resid})],
        tables={"eigenvalues.csv": (("re", "im"),
                                    [(z.real, z.imag) for z in eigs])},
        system=ps, V=V, transform=transform, residual=resid)


def shaw_pierre_forced():
    """Newton fixed points of the forced chain's period map and their
    Floquet multipliers, from the monodromy Newton converged with; raw
    result ``orbits``, {label: (FixedPointResult, FloquetResult)}."""
    c, m, A_f, Omega = 0.03, 1.0, 0.11, 1.07
    sys_ = dynamics.testbed("shaw_pierre",
                            params=dict(c=c, A=A_f, Omega=Omega))
    T = sys_.period
    found = {}
    for label, seed in dynamics.FORCED_SEEDS.items():
        res = dynamics.newton_fixed_point(sys_, seed, tol=1e-9,
                                          flow_tol=1e-11)
        found[label] = (res, res.floquet)

    locs = [res.location for res, _ in found.values()]
    distinct = all(np.linalg.norm(locs[i] - locs[j]) > 1e-3
                   for i in range(3) for j in range(i + 1, 3))
    stable = all(np.all(np.abs(found[k][1].multipliers) < 1.0)
                 for k in ("low", "high"))
    liouville = np.exp(-3.0 * c * T / m)
    worst = max(abs(np.prod(fl.multipliers).real - liouville) / liouville
                for _, fl in found.values())
    refs = [1.0835, 0.7726, complex(-0.4132, 0.6474),
            complex(-0.4132, -0.6474)]
    mults = found["middle"][1].multipliers
    err = max(min(abs(mu - r) for mu in mults) for r in refs)
    ordered = sorted(found.items())
    return SimpleNamespace(
        checks=[
            _check("three distinct fixed points located", distinct,
                   {"locations": [list(np.round(loc, 5)) for loc in locs]}),
            _check("low and high orbits have multipliers inside unit "
                   "circle", stable, {}),
            _check("Liouville product identity to 1e-6", worst < 1e-6,
                   {"worst_relative_error": worst}),
            _check("saddle multipliers match reference values to 2e-2",
                   err < 2e-2, {"max_error": err,
                                "computed": [[mu.real, mu.imag]
                                             for mu in mults]})],
        tables={
            "fixed_points.csv": (
                ("orbit", "q1", "p1", "q2", "p2", "classification"),
                [(label, *res.location, res.classification)
                 for label, (res, _) in ordered]),
            "floquet_multipliers.csv": (
                ("orbit", "re", "im"),
                [(label, mu.real, mu.imag) for label, (_, fl) in ordered
                 for mu in fl.multipliers])},
        orbits=found)


EXAMPLES = {
    "planar": planar,
    "mixed3d": mixed3d,
    "shaw_pierre_unforced": shaw_pierre_unforced,
    "shaw_pierre_forced": shaw_pierre_forced,
}
