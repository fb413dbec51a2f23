"""IQP model construction (§3 of the paper).

:class:`SynthesisModelBuilder` turns a :class:`~repro.core.spec.SwitchSpec`
plus a pre-enumerated :class:`~repro.switches.paths.PathCatalog` into a
:class:`repro.opt.Model`:

* path assignment — eqs. (3.1)–(3.2);
* module-to-pin binding and its coupling to path endpoints —
  eqs. (3.9)–(3.13);
* contamination avoidance — eq. (3.3);
* flow scheduling — eqs. (3.4)–(3.6) (the K/k/q′ counters), plus the
  indicator side ``k ≤ (1 − q′)·N`` the construction needs to be sound;
* the objective ``α·N_sets + β·L_flow`` — eq. (3.7);
* valid rows that only tighten the LP relaxation: set-cover cliques,
  rotation symmetry breaking and, under free binding, one pin-stub row
  per pin (docs/mathematical_model.md).

Constraints are stated over *sites*: the switch nodes selected by the
node policy plus every flow segment. Usage indicators ``a[i, site]``
make both the contamination and the scheduling constraints linear in
``x``; the only quadratic terms are the paper's ``w·a`` products, which
the model layer linearizes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.opt import Model, Var, VarType, quicksum
from repro.opt.cuts import conflict_cliques
from repro.core.spec import (
    BindingPolicy,
    ConflictForm,
    Flow,
    NodePolicy,
    SchedulingForm,
    SwitchSpec,
)
from repro.switches.paths import Path, PathCatalog

#: A constraint site: ``("node", name)`` or ``("seg", (a, b))``.
Site = Tuple[str, Union[str, Tuple[str, str]]]


@dataclass
class BuiltModel:
    """The assembled optimization model plus its variable handles."""

    spec: SwitchSpec
    catalog: PathCatalog
    model: Model
    sites: List[Site]
    allowed_paths: Dict[int, List[Path]]          # flow id -> candidate paths
    x: Dict[Tuple[int, int], Var]                 # (flow id, path index)
    y: Dict[Tuple[str, str], Var]                 # (module, pin)
    a: Dict[Tuple[int, Site], Var]                # (flow id, site) usage
    w: Dict[Tuple[int, int], Var]                 # (flow id, set index)
    u: Dict[int, Var]                             # set-used indicators
    used: Dict[Tuple[str, str], Var]              # segment usage
    pin_index_var: Dict[str, Var] = field(default_factory=dict)   # clockwise
    wrap_q: Dict[str, Var] = field(default_factory=dict)          # clockwise
    # Scheduling auxiliaries, keyed for heuristic warm-start assembly.
    sched_k: Dict[Tuple[str, Site, int], Var] = field(default_factory=dict)
    sched_K: Dict[Tuple[Site, int], Var] = field(default_factory=dict)
    sched_q: Dict[Tuple[str, Site, int], Var] = field(default_factory=dict)
    sched_b: Dict[Tuple[str, Site, int], Var] = field(default_factory=dict)
    n_sets_expr: object = None
    length_expr: object = None


class SynthesisModelBuilder:
    """Builds the synthesis IQP for one switch case."""

    def __init__(self, spec: SwitchSpec, catalog: PathCatalog) -> None:
        self.spec = spec
        self.catalog = catalog
        self.switch = spec.switch
        self._path_site_lists: Dict[int, List[Site]] = {}

    # ------------------------------------------------------------------
    def build(self) -> BuiltModel:
        spec = self.spec
        model = Model(spec.name)

        sites = self._sites()
        allowed = self._allowed_paths()

        x = self._path_vars(model, allowed)
        y = self._binding_vars(model)
        self._path_assignment_constraints(model, x, allowed)
        self._binding_constraints(model, y)
        self._coupling_constraints(model, x, y, allowed)
        a = self._usage_vars(model, x, allowed, sites)
        self._contamination_constraints(model, a, sites)

        w, u = self._set_vars(model)
        self._sched_handles: Dict[str, Dict] = {"k": {}, "K": {}, "q": {}, "b": {}}
        self._scheduling_constraints(model, a, w, sites)
        self._set_cover_cuts(model, w, u, allowed)

        used = self._segment_usage_vars(model, a)

        built = BuiltModel(
            spec=spec, catalog=self.catalog, model=model, sites=sites,
            allowed_paths=allowed, x=x, y=y, a=a, w=w, u=u, used=used,
            sched_k=self._sched_handles["k"], sched_K=self._sched_handles["K"],
            sched_q=self._sched_handles["q"], sched_b=self._sched_handles["b"],
        )
        if spec.binding is BindingPolicy.CLOCKWISE:
            self._clockwise_constraints(model, y, built)
        elif spec.binding is BindingPolicy.FIXED:
            self._fixed_constraints(model, y)
        if spec.binding is not BindingPolicy.FIXED:
            self._rotation_symmetry_breaking(model, y)
            self._pin_stub_rows(model, y, used)

        self._objective(model, built)
        return built

    # ------------------------------------------------------------------
    # sites and candidate paths
    # ------------------------------------------------------------------
    def _sites(self) -> List[Site]:
        if self.spec.node_policy is NodePolicy.PAPER:
            nodes = self.switch.major_nodes()
        else:
            nodes = self.switch.all_nodes()
        site_list: List[Site] = [("node", n) for n in nodes]
        site_list.extend(("seg", key) for key in sorted(self.switch.segments))
        return site_list

    def _path_sites(self, path: Path) -> List[Site]:
        """The sites ``path`` touches, derived once per catalog path
        (under free binding every flow shares the whole catalog)."""
        result = self._path_site_lists.get(path.index)
        if result is None:
            if self.spec.node_policy is NodePolicy.PAPER:
                nodes = path.major_nodes(self.switch)
            else:
                nodes = path.nodes
            result = [("node", n) for n in nodes]
            result.extend(("seg", key) for key in path.segments)
            self._path_site_lists[path.index] = result
        return result

    def _allowed_paths(self) -> Dict[int, List[Path]]:
        spec = self.spec
        allowed: Dict[int, List[Path]] = {}
        for f in spec.flows:
            if spec.binding is BindingPolicy.FIXED:
                assert spec.fixed_binding is not None
                src_pin = spec.fixed_binding[f.source]
                dst_pin = spec.fixed_binding[f.target]
                # A mask can strand the pins: no path leaves the flow's
                # one-path row without columns, so the model is infeasible.
                paths = self.catalog.between(src_pin, dst_pin)
            else:
                paths = list(self.catalog)
            allowed[f.id] = paths
        return allowed

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def _path_vars(self, model: Model, allowed) -> Dict[Tuple[int, int], Var]:
        x = {}
        for f in self.spec.flows:
            for p in allowed[f.id]:
                x[(f.id, p.index)] = model.add_binary(f"x_f{f.id}_d{p.index}")
        return x

    def _binding_vars(self, model: Model) -> Dict[Tuple[str, str], Var]:
        y = {}
        for m in self.spec.modules:
            for p in self.switch.pins:
                y[(m, p)] = model.add_binary(f"y_{m}_{p}")
        return y

    def _usage_vars(self, model: Model, x, allowed, sites) -> Dict[Tuple[int, Site], Var]:
        """a[i, site] == sum of x over the flow's paths using the site."""
        a: Dict[Tuple[int, Site], Var] = {}
        paths_using: Dict[Tuple[int, Site], List[Path]] = {}
        for f in self.spec.flows:
            for p in allowed[f.id]:
                for site in self._path_sites(p):
                    paths_using.setdefault((f.id, site), []).append(p)
        for f in self.spec.flows:
            for site in sites:
                key = (f.id, site)
                users = paths_using.get(key)
                if not users:
                    continue  # the flow can never touch this site
                var = model.add_binary(f"a_f{f.id}_{_site_tag(site)}")
                model.add_constr(
                    var == quicksum(x[(f.id, p.index)] for p in users),
                    f"use_f{f.id}_{_site_tag(site)}",
                )
                a[key] = var
        # The defining equalities force every a to the (integral) sum of
        # its x's, so solvers never need to branch on usage indicators.
        model.mark_implied_integer(*a.values())
        return a

    def _set_vars(self, model: Model):
        spec = self.spec
        n_sets = spec.effective_max_sets()
        w: Dict[Tuple[int, int], Var] = {}
        u: Dict[int, Var] = {}
        if not spec.flows:
            return w, u
        for s in range(n_sets):
            u[s] = model.add_binary(f"u_s{s}")
        for rank, f in enumerate(spec.flows):
            for s in range(n_sets):
                if s > rank:
                    continue  # symmetry breaking: flow #r uses sets 0..r
                w[(f.id, s)] = model.add_binary(f"w_f{f.id}_s{s}")
        for rank, f in enumerate(spec.flows):
            model.add_constr(
                quicksum(w[(f.id, s)] for s in range(n_sets) if (f.id, s) in w) == 1,
                f"one_set_f{f.id}",
            )
            for s in range(n_sets):
                if (f.id, s) in w:
                    model.add_constr(w[(f.id, s)] <= u[s], f"setused_f{f.id}_s{s}")
        for s in range(n_sets - 1):
            model.add_constr(u[s] >= u[s + 1], f"sets_ordered_{s}")
        return w, u

    def _segment_usage_vars(self, model: Model, a) -> Dict[Tuple[str, str], Var]:
        # One indicator per flow keeps the LP relaxation tight (the
        # aggregated big-M form `n*used >= sum(a)` relaxes to tiny
        # fractional `used` values and slows branch-and-bound badly).
        used: Dict[Tuple[str, str], Var] = {}
        for key in sorted(self.switch.segments):
            site: Site = ("seg", key)
            contributors = [a[(f.id, site)] for f in self.spec.flows if (f.id, site) in a]
            if not contributors:
                continue
            var = model.add_binary(f"used_{key[0]}__{key[1]}")
            for idx, contrib in enumerate(contributors):
                model.add_constr(var >= contrib, f"used_def_{key[0]}__{key[1]}_{idx}")
            used[key] = var
        # `used` only appears in >=-rows and the (minimized, nonnegative)
        # length objective, so it settles on max(a) — integral once the
        # a's are. Branching on it is never needed.
        model.mark_implied_integer(*used.values())
        return used

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    def _path_assignment_constraints(self, model: Model, x, allowed) -> None:
        # (3.1) each flow chooses exactly one path
        for f in self.spec.flows:
            model.add_constr(
                quicksum(x[(f.id, p.index)] for p in allowed[f.id]) == 1,
                f"one_path_f{f.id}",
            )
        # (3.2) each path is chosen at most once
        by_path: Dict[int, List[Var]] = {}
        for (fid, pidx), var in x.items():
            by_path.setdefault(pidx, []).append(var)
        for pidx, vars_ in by_path.items():
            if len(vars_) > 1:
                model.add_constr(quicksum(vars_) <= 1, f"path_once_d{pidx}")

    def _binding_constraints(self, model: Model, y) -> None:
        # (3.9) every module binds to exactly one pin
        for m in self.spec.modules:
            model.add_constr(
                quicksum(y[(m, p)] for p in self.switch.pins) == 1, f"bind_{m}"
            )
        # (3.10) every pin is used by at most one module
        for p in self.switch.pins:
            model.add_constr(
                quicksum(y[(m, p)] for m in self.spec.modules) <= 1, f"pin_once_{p}"
            )

    def _coupling_constraints(self, model: Model, x, y, allowed) -> None:
        """Tie each flow's path endpoints to its modules' bound pins."""
        for f in self.spec.flows:
            starts: Dict[str, List[Var]] = {}
            ends: Dict[str, List[Var]] = {}
            for p in allowed[f.id]:
                starts.setdefault(p.source_pin, []).append(x[(f.id, p.index)])
                ends.setdefault(p.target_pin, []).append(x[(f.id, p.index)])
            for pin in self.switch.pins:
                s_expr = quicksum(starts.get(pin, []))
                model.add_constr(s_expr == y[(f.source, pin)], f"srcpin_f{f.id}_{pin}")
                e_expr = quicksum(ends.get(pin, []))
                model.add_constr(e_expr == y[(f.target, pin)], f"dstpin_f{f.id}_{pin}")

    def _contamination_constraints(self, model: Model, a, sites) -> None:
        spec = self.spec
        if not spec.conflicts:
            return
        if spec.conflict_form is ConflictForm.AGGREGATE:
            # the thesis' literal formula: one sum over the union of CF
            union = sorted({fid for pair in spec.conflicts for fid in pair})
            for site in sites:
                terms = [a[(fid, site)] for fid in union if (fid, site) in a]
                if len(terms) > 1:
                    model.add_constr(quicksum(terms) <= 1, f"cf_{_site_tag(site)}")
            return
        for pair in sorted(spec.conflicts, key=sorted):
            i, j = sorted(pair)
            for site in sites:
                ai = a.get((i, site))
                aj = a.get((j, site))
                if ai is None or aj is None:
                    continue
                model.add_constr(ai + aj <= 1, f"cf_{i}_{j}_{_site_tag(site)}")
        # Clique strengthening: for >= 3 mutually-conflicting flows the
        # pairwise rows admit the fractional point a_i = 1/2 everywhere;
        # one at-most-one row per maximal conflict clique per site cuts
        # it off without excluding any integral assignment.
        for ci, clique in enumerate(conflict_cliques(spec.conflicts)):
            for site in sites:
                terms = [a[(fid, site)] for fid in clique if (fid, site) in a]
                if len(terms) > 2:
                    model.add_constr(quicksum(terms) <= 1,
                                     f"cfclq{ci}_{_site_tag(site)}")

    def _scheduling_constraints(self, model: Model, a, w, sites) -> None:
        """No site is used by two different inlets within one flow set.

        Inlet identity is the *source module* (each source module owns
        exactly one inlet pin, so the partition is the same as the
        paper's per-inlet-pin counters, independent of binding).
        """
        spec = self.spec
        if len(spec.flows) < 2:
            return
        n_sets = spec.effective_max_sets()
        inlets = spec.inlet_modules
        if len(inlets) < 2:
            return
        flows_by_inlet = {m: [f for f in spec.flows if f.source == m] for m in inlets}

        if spec.scheduling_form is SchedulingForm.COMPACT:
            self._scheduling_compact(model, a, w, sites, n_sets, inlets, flows_by_inlet)
        else:
            self._scheduling_paper(model, a, w, sites, n_sets, inlets, flows_by_inlet)

    def _scheduling_paper(self, model, a, w, sites, n_sets, inlets, flows_by_inlet):
        """Eqs. (3.4)-(3.6): K/k/q' counters with per-site big-Ms.

        The thesis text states (3.4)-(3.6) only; on their own they do
        not force q' to 0 when the inlet uses the node, so we add the
        indicator's other side, ``k <= (1 - q')*N``, which the
        construction needs (documented in DESIGN.md).

        The paper writes all the big-Ms as N_Pins; the tightest valid
        constants are the counter ranges themselves — ``k`` is at most
        the inlet's eligible-flow count at the site/set and ``K`` their
        total — which keeps the LP relaxation close and is safe even
        when a case has more flows than pins.
        """
        for site in sites:
            relevant = [m for m in inlets
                        if any((f.id, site) in a for f in flows_by_inlet[m])]
            if len(relevant) < 2:
                continue
            tag = _site_tag(site)
            for s in range(n_sets):
                k_vars = {}
                k_ubs = {}
                for m in relevant:
                    terms = [
                        w[(f.id, s)] * a[(f.id, site)]
                        for f in flows_by_inlet[m]
                        if (f.id, site) in a and (f.id, s) in w
                    ]
                    if not terms:
                        continue
                    k = model.add_integer(f"k_{m}_{tag}_s{s}", 0, len(terms))
                    model.add_constr(k == quicksum(terms), f"kdef_{m}_{tag}_s{s}")
                    # kdef pins k to an integral sum: never branched on.
                    model.mark_implied_integer(k)
                    self._sched_handles["k"][(m, site, s)] = k
                    k_vars[m] = k
                    k_ubs[m] = len(terms)
                if len(k_vars) < 2:
                    continue
                K_ub = sum(k_ubs.values())
                K = model.add_integer(f"K_{tag}_s{s}", 0, K_ub)
                model.add_constr(K == quicksum(k_vars.values()), f"Kdef_{tag}_s{s}")
                self._sched_handles["K"][(site, s)] = K
                model.mark_implied_integer(K)
                for m, k in k_vars.items():
                    q = model.add_binary(f"qp_{m}_{tag}_s{s}")
                    self._sched_handles["q"][(m, site, s)] = q
                    m_k = k_ubs[m]
                    model.add_constr(k >= 1 - q, f"sched34_{m}_{tag}_s{s}")
                    model.add_constr(k <= K + q * m_k, f"sched35_{m}_{tag}_s{s}")
                    model.add_constr(k >= K - q * K_ub, f"sched36_{m}_{tag}_s{s}")
                    model.add_constr(k <= (1 - q) * m_k, f"schedind_{m}_{tag}_s{s}")

    def _scheduling_compact(self, model, a, w, sites, n_sets, inlets, flows_by_inlet):
        """Indicator encoding: b[m, site, s] >= w*a, sum_m b <= 1."""
        for site in sites:
            relevant = [m for m in inlets
                        if any((f.id, site) in a for f in flows_by_inlet[m])]
            if len(relevant) < 2:
                continue
            tag = _site_tag(site)
            for s in range(n_sets):
                b_vars = []
                for m in relevant:
                    prods = [
                        w[(f.id, s)] * a[(f.id, site)]
                        for f in flows_by_inlet[m]
                        if (f.id, site) in a and (f.id, s) in w
                    ]
                    if not prods:
                        continue
                    b = model.add_binary(f"b_{m}_{tag}_s{s}")
                    for idx, prod in enumerate(prods):
                        model.add_constr(b >= prod, f"bdef_{m}_{tag}_s{s}_{idx}")
                    self._sched_handles["b"][(m, site, s)] = b
                    b_vars.append(b)
                if len(b_vars) > 1:
                    model.add_constr(quicksum(b_vars) <= 1, f"sched_{tag}_s{s}")

    def _set_cover_cuts(self, model: Model, w, u, allowed) -> None:
        """Strengthen the set-count relaxation with collision cliques.

        A site every candidate path of a flow passes through is
        *mandatory* for that flow. Two flows from different source
        modules whose mandatory sites intersect can never share a flow
        set — whatever paths are chosen, some common site would be fed
        by two inlets, violating scheduling. Each maximal clique of such
        pairwise-colliding flows therefore needs one set per member:
        ``sum_f w[f, s] <= 1`` per set, and (with the ordered ``u``
        chain) ``u[s] >= 1`` for the first ``|clique|`` sets. Both rows
        are implied for every feasible integral point, so they only
        tighten the LP relaxation.
        """
        spec = self.spec
        if len(spec.flows) < 2 or not u:
            return
        mandatory: Dict[int, FrozenSet[Site]] = {}
        source_of: Dict[int, str] = {}
        for f in spec.flows:
            paths = allowed[f.id]
            if not paths:
                continue
            common = frozenset(self._path_sites(paths[0]))
            for p in paths[1:]:
                if not common:
                    break
                common = common.intersection(self._path_sites(p))
            if common:
                mandatory[f.id] = common
                source_of[f.id] = f.source
        if len(mandatory) < 2:
            return
        ids = sorted(mandatory)
        pairs = {
            frozenset((i, j))
            for ai, i in enumerate(ids)
            for j in ids[ai + 1:]
            if source_of[i] != source_of[j] and mandatory[i] & mandatory[j]
        }
        if not pairs:
            return
        n_sets = spec.effective_max_sets()
        max_clique = 0
        for ci, clique in enumerate(conflict_cliques(pairs, min_size=2)):
            max_clique = max(max_clique, len(clique))
            for s in range(n_sets):
                terms = [w[(fid, s)] for fid in clique if (fid, s) in w]
                if len(terms) > 1:
                    model.add_constr(quicksum(terms) <= 1, f"cover_clq{ci}_s{s}")
        for s in range(min(max_clique, n_sets)):
            model.add_constr(u[s] >= 1, f"cover_minsets_{s}")

    def _rotation_symmetry_breaking(self, model: Model, y) -> None:
        """Exploit the switch's rotational symmetry.

        Rotating every pin by ``n_pins / rotation_order`` positions is a
        length-preserving automorphism compatible with the clockwise and
        unfixed policies, so every solution has a rotated twin of equal
        cost; restricting the first module to one fundamental arc of
        pins removes those duplicates without losing any optimum.
        """
        rot = self.switch.rotation_order
        if rot <= 1 or not self.spec.modules:
            return
        arc = self.switch.n_pins // rot
        first = self.spec.modules[0]
        model.add_constr(
            quicksum(
                y[(first, p)] for p in self.switch.pins
                if self.switch.pin_index(p) <= arc
            )
            == 1,
            "rot_symmetry",
        )

    def _pin_stub_rows(self, model: Model, y, used) -> None:
        """A pin that holds a flow's module pays for its stub segment.

        Every pin attaches to exactly one segment, its stub, and holds
        at most one module (3.10). A module that is some flow's endpoint
        forces that flow's path to start or end on its pin, so the stub
        is used: ``used[stub(p)] >= sum_m y[m, p]`` over those modules.
        The coupling rows only give this per module, which lets the LP
        put two modules half on one pin and pay for half a stub. Pins a
        health mask left without a live stub get no row.
        """
        endpoints = {m for f in self.spec.flows for m in (f.source, f.target)}
        modules = [m for m in self.spec.modules if m in endpoints]
        for p in self.switch.pins:
            segments = self.switch.segments_at(p)
            if len(segments) != 1 or segments[0].key not in used:
                continue
            model.add_constr(
                used[segments[0].key] >= quicksum(y[(m, p)] for m in modules),
                f"stub_{p}",
            )

    def _fixed_constraints(self, model: Model, y) -> None:
        # (3.11) bind the specified module-pin pairs
        assert self.spec.fixed_binding is not None
        for m, p in sorted(self.spec.fixed_binding.items()):
            model.add_constr(y[(m, p)] == 1, f"fix_{m}_{p}")

    def _clockwise_constraints(self, model: Model, y, built: BuiltModel) -> None:
        # (3.12)-(3.13) modules appear clockwise around the switch
        spec = self.spec
        assert spec.module_order is not None
        order = spec.module_order
        n = self.switch.n_pins
        pin_vars: Dict[str, Var] = {}
        for m in spec.modules:
            pv = model.add_integer(f"pin_{m}", 1, n)
            model.add_constr(
                pv == quicksum(self.switch.pin_index(p) * y[(m, p)]
                               for p in self.switch.pins),
                f"pinidx_{m}",
            )
            pin_vars[m] = pv
        # pin indices equal a sum of binaries by definition: no branching.
        model.mark_implied_integer(*pin_vars.values())
        q_vars: Dict[str, Var] = {}
        for m in order:
            q_vars[m] = model.add_binary(f"qcw_{m}")
        if len(order) > 1:
            for idx, m_a in enumerate(order):
                m_b = order[(idx + 1) % len(order)]
                model.add_constr(
                    pin_vars[m_a] <= pin_vars[m_b] - 1 + q_vars[m_a] * n,
                    f"cw_{m_a}",
                )
        model.add_constr(quicksum(q_vars.values()) == 1, "cw_wrap")
        built.pin_index_var = pin_vars
        built.wrap_q = q_vars

    def _objective(self, model: Model, built: BuiltModel) -> None:
        spec = self.spec
        n_sets_expr = quicksum(built.u.values())
        length_expr = quicksum(
            self.switch.segments[key].length * var for key, var in built.used.items()
        )
        built.n_sets_expr = n_sets_expr
        built.length_expr = length_expr
        model.set_objective(spec.alpha * n_sets_expr + spec.beta * length_expr, "min")


def _site_tag(site: Site) -> str:
    kind, payload = site
    if kind == "node":
        return f"n_{payload}"
    a, b = payload  # type: ignore[misc]
    return f"e_{a}__{b}"
