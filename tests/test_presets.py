import dataclasses

import pytest

from crossbound import bounds as B
from crossbound.errors import InvalidParameter
from crossbound.presets import _event, run_theorem9_all, theorem9_groups
from crossbound.validate import EventSpec, sweep

# (group, label, kind, side, gamma, v_tau, slope, eta, bound) of every event
# of the domination sweep, in sweep order; the group order fixes each group's
# seed, seed + 7919 i.
EVENTS = [
    ("brownian_x", "bm_line_upper_s2_g2", "line", "upper",
     2.0, 1.0, 1.0, 0.0, 0.1353352832366127),
    ("brownian_x", "bm_line_upper_s1_g2", "line", "upper",
     2.0, 1.0, 0.5, 0.0, 0.22313016014842982),
    ("brownian_x", "bm_line_lower_s1_g1", "line", "lower",
     1.0, 1.0, 0.5, 0.0, 0.6065306597126334),
    ("brownian_x", "bm_opt_line_upper_g1", "line", "upper",
     1.0, 1.0, 0.4999999999999999, 0.0, 0.6065306597126334),
    ("brownian_x", "bm_opt_line_lower_g1", "line", "lower",
     1.0, 1.0, 0.4999999999999999, 0.0, 0.6065306597126334),
    ("brownian_x", "bm_vee_upper_g1", "vee", "upper",
     1.0, 1.0, 0.0, 0.0, 0.6065306597126334),
    ("brownian_x", "bm_vee_lower_g1", "vee", "lower",
     1.0, 1.0, 0.0, 0.0, 0.6065306597126334),
    ("brownian_x", "bm_eta_ray_upper", "eta_ray", "upper",
     0.5, 0.0, 0.0, 1.0, 0.3678794411695165),
    ("brownian_x", "bm_eta_ray_lower", "eta_ray", "lower",
     0.5, 0.0, 0.0, 1.0, 0.3678794411695165),
    ("brownian_x", "bm_eta_vee_upper", "vee", "upper",
     1.0, 1.0, 0.0, 1.0, 0.1353352832366127),
    ("brownian_x", "bm_eta_vee_lower", "vee", "lower",
     1.0, 1.0, 0.0, 1.0, 0.1353352832366127),
    ("brownian_x", "bm_azuma_upper", "line", "upper",
     2.0, 1.0, 1.0, 0.0, 0.1353352832366127),
    ("brownian_x", "bm_azuma_lower", "line", "lower",
     2.0, 1.0, 1.0, 0.0, 0.1353352832366127),
    ("brownian_x", "bm_azuma_two_sided", "line", "two_sided",
     2.5, 1.0, 1.25, 0.0, 0.08787386724681484),
    ("brownian_y", "bm_doob_g2", "sup_level", "upper",
     2.0, 0.0, 0.0, 0.0, 0.5),
    ("brownian_y", "bm_doob_g1.25", "sup_level", "upper",
     1.25, 0.0, 0.0, 0.0, 0.8),
    ("brownian_y", "bm_them5_g4", "sup_level", "upper",
     4.0, 0.0, 0.0, 0.0, 0.25),
    ("brownian_y", "bm_them5_certain_g1", "sup_level", "upper",
     1.0, 0.0, 0.0, 0.0, 1.0),
    ("uniform", "unif_opt_line_upper", "line", "upper",
     0.2, 10.0, 0.10000000000000002, 0.0, 0.09071795328941247),
    ("uniform", "unif_opt_line_lower", "line", "lower",
     0.2, 10.0, 0.10000000000000002, 0.0, 0.09071795328941247),
    ("uniform", "unif_vee_upper", "vee", "upper",
     0.2, 10.0, 0.0, 0.0, 0.09071795328941247),
    ("uniform", "unif_eta_ray_upper", "eta_ray", "upper",
     0.2, 0.0, 0.0, 0.5, 0.09071795329027872),
    ("uniform", "unif_eta_vee_upper", "vee", "upper",
     0.15, 10.0, 0.0, 0.3, 0.1431302820788798),
    ("uniform_y", "unif_cthm7_g2", "sup_level", "upper",
     2.0, 0.0, 0.0, 0.0, 0.5),
    ("bernoulli", "bern_opt_line_upper_g015", "line", "upper",
     0.15, 20.0, 0.07295379764139662, 0.0, 0.36920495778591433),
    ("bernoulli", "bern_opt_line_upper_g02", "line", "upper",
     0.2, 20.0, 0.09711210467054592, 0.0, 0.1749012287659804),
    ("bernoulli", "bern_opt_line_lower_g02", "line", "lower",
     0.2, 20.0, 0.11383105828966433, 0.0, 0.09764321257847815),
    ("bernoulli", "bern_vee_upper", "vee", "upper",
     0.2, 20.0, 0.0, 0.0, 0.1749012287659804),
    ("bernoulli", "bern_eta_vee_upper", "vee", "upper",
     0.1, 20.0, 0.0, 2.0, 0.1749012287659804),
    ("bernoulli", "bern_expfam_vee_upper", "vee", "upper",
     0.2, 20.0, 0.0, 0.0, 0.1749012287659807),
    ("bernoulli", "bern_expfam_rho_line_upper", "line", "upper",
     0.2, 20.0, 0.09711210467054598, 0.0, 0.1749012287659807),
    ("bernoulli", "bern_expfam_vee_lower", "vee", "lower",
     0.2, 20.0, 0.0, 0.0, 0.09764321257847802),
    ("poisson", "pois_line_upper_t1", "line", "upper",
     1.0, 1.0, 0.4426950408889634, 0.0, 0.6795704571147614),
    ("poisson", "pois_line_upper_t3", "line", "upper",
     1.0, 3.0, 0.4426950408889634, 0.0, 0.31383651442480737),
    ("poisson", "pois_line_lower_t2", "line", "lower",
     0.5, 2.0, 0.2786524795555183, 0.0, 0.7357588823428847),
    ("poisson", "pois_vee_upper", "vee", "upper",
     1.0, 2.0, 0.0, 0.0, 0.4618160061831657),
    ("poisson", "pois_eta_ray_upper", "eta_ray", "upper",
     2.0, 0.0, 0.0, 0.8, 0.21804562358670204),
    ("cbb", "cbb_bennett", "line", "upper",
     0.15, 40.0, 0.06914647178516647, 0.0, 0.21869918717401446),
    ("cbb", "cbb_bernstein", "line", "upper",
     0.1, 40.0, 0.05, 0.0, 0.49367278838913037),
    ("cbb", "cbb_chernoff_sub", "line", "upper",
     0.1, 40.0, 0.05, 0.0, 0.6703200460356393),
    ("bennett_two_point", "bennett2p_opt_line_upper", "line", "upper",
     0.5, 5.0, 0.23326236847144033, 0.0, 0.5925925925925924),
    ("bennett_two_point", "bennett2p_opt_line_lower", "line", "lower",
     0.4, 5.0, 0.24561100425981813, 0.0, 0.5750743799452065),
    ("walk", "walk_azuma_two_sided", "line", "two_sided",
     0.5555555555555556, 9.0, 0.2777777777777778, 0.0, 0.49870441755459244),
]


def test_theorem9_events_match_recorded_table():
    groups = theorem9_groups()
    assert [name for name, _, _ in groups] == list(
        dict.fromkeys(row[0] for row in EVENTS))
    got = [(name, ev) for name, _, events in groups for ev in events]
    want = [(group, EventSpec(kind=kind, side=side, gamma=gamma, v_tau=v_tau,
                              slope=slope, eta=eta, bound=bound, label=label))
            for group, label, kind, side, gamma, v_tau, slope, eta, bound
            in EVENTS]
    assert got == want
    # equal values of another type (an int v_tau, say) fail too
    for (_, ev), (_, ref) in zip(got, want):
        assert [type(getattr(ev, f.name)) for f in dataclasses.fields(ev)] == \
            [type(getattr(ref, f.name)) for f in dataclasses.fields(ref)]


@pytest.mark.parametrize("which", ["bennett", "bernstein", "chernoff_sub"])
def test_event_rejects_cbb_reports(which):
    # their events live on the step-count V grid, so the sweep states them
    report = B.cbb_bounds(gamma=4.0, v_m=10.0, b=1.0, which=which)
    with pytest.raises(InvalidParameter, match=report.inequality):
        _event(report, "cbb")


def test_pooled_groups_equal_separate_sweeps():
    # one pool over every group's chunks counts what a sweep per group does
    got = run_theorem9_all(paths=300, seed=5, threads=2)
    want = [(name, rep.n_crossed) for i, (name, spec, events)
            in enumerate(theorem9_groups())
            for rep in sweep(spec, events, 300, seed=5 + 7919 * i, threads=1)]
    assert len(got) == 43
    assert [(rep.extra["group"], rep.n_crossed) for rep in got] == want
    # a row's runtime_seconds is its group's, shared by the group's rows
    for name in {rep.extra["group"] for rep in got}:
        assert len({rep.runtime_seconds for rep in got
                    if rep.extra["group"] == name}) == 1
