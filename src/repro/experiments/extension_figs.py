"""Extension experiments beyond the paper's figure set.

* :func:`figure_e1` — the paper's Eq. 6 delivery model vs the refined
  single-carrier-last-hop model vs protocol simulation, as a deadline
  sweep. Makes the Figs. 4/5 analysis-simulation gap quantitative and
  shows the refined model closing most of it.
* :func:`figure_e2` — delivery vs deadline across protocols (onion L=1/3,
  TPS, ALAR, epidemic) on one random-graph substrate: the quantitative
  version of the related-work comparison (§VI).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.analysis.delivery import analysis_delivery_curve
from repro.analysis.hypoexponential import Hypoexponential
from repro.contacts.events import ExponentialContactProcess
from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import MultiCopySession
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.single_copy import SingleCopySession
from repro.experiments.config import DEFAULT_CONFIG, PaperConfig
from repro.experiments.result import FigureResult, Series
from repro.experiments.runners import simulated_delivery_curve
from repro.extensions.alar import AlarSession
from repro.extensions.refined_models import refined_onion_path_rates
from repro.extensions.tps import TpsSession, select_tps_route
from repro.routing.epidemic import EpidemicSession
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.utils.rng import RandomSource, ensure_rng


def figure_e1(
    config: PaperConfig = DEFAULT_CONFIG,
    group_size: int = 5,
    sessions: int = 150,
    seed: RandomSource = 101,
) -> FigureResult:
    """Paper model vs refined model vs simulation (delivery sweep)."""
    rng = ensure_rng(seed)
    graph = random_contact_graph(config.n, config.mean_intercontact_range, rng=rng)
    directory = OnionGroupDirectory(config.n, group_size, rng=rng)
    deadlines = np.asarray(config.deadlines)

    refined_total = np.zeros(len(deadlines))
    routes = []
    outcomes = []
    engine = SimulationEngine(
        ExponentialContactProcess(graph, rng=rng), horizon=config.max_deadline
    )
    for _ in range(sessions):
        source, destination = rng.choice(config.n, size=2, replace=False)
        route = directory.select_route(
            int(source), int(destination), config.onion_routers, rng=rng
        )
        routes.append(route)
        refined_total += Hypoexponential(
            refined_onion_path_rates(
                graph, route.source, route.groups, route.destination
            )
        ).cdf(deadlines)
        message = Message(
            route.source, route.destination, 0.0, config.max_deadline
        )
        session = SingleCopySession(message, route)
        engine.add_session(session)
        outcomes.append(session.outcome())
    engine.run()
    paper = analysis_delivery_curve(graph, routes, deadlines)

    return FigureResult(
        figure_id="Fig. E1",
        title="Delivery model comparison: Eq. 6 vs refined vs simulation",
        x_label="Deadline (minutes)",
        y_label="Delivery rate",
        series=(
            Series(
                label="Paper model (Eq. 6)",
                points=tuple(paper),
            ),
            Series(
                label="Refined model",
                points=tuple(zip(deadlines, refined_total / sessions)),
            ),
            Series(
                label="Simulation",
                points=tuple(simulated_delivery_curve(outcomes, deadlines)),
            ),
        ),
    )


def figure_e2(
    config: PaperConfig = DEFAULT_CONFIG,
    group_size: int = 5,
    sessions: int = 120,
    seed: RandomSource = 102,
) -> FigureResult:
    """Delivery vs deadline across protocols on one shared substrate."""
    rng = ensure_rng(seed)
    graph = random_contact_graph(config.n, config.mean_intercontact_range, rng=rng)
    directory = OnionGroupDirectory(config.n, group_size, rng=rng)
    deadlines = config.deadlines
    horizon = config.max_deadline

    def run_sessions(factory) -> List:
        engine = SimulationEngine(
            ExponentialContactProcess(graph, rng=rng), horizon=horizon
        )
        outcomes = []
        for _ in range(sessions):
            source, destination = rng.choice(config.n, size=2, replace=False)
            message = Message(int(source), int(destination), 0.0, horizon)
            session = factory(message)
            engine.add_session(session)
            outcomes.append(session.outcome())
        engine.run()
        return outcomes

    def onion_factory(copies):
        def build(message):
            route = directory.select_route(
                message.source, message.destination, config.onion_routers,
                rng=rng,
            )
            if copies == 1:
                return SingleCopySession(message, route)
            return MultiCopySession(message, route, copies=copies)

        return build

    def tps_factory(message):
        route = select_tps_route(
            config.n, message.source, message.destination,
            shares=5, threshold=3, rng=rng,
        )
        return TpsSession(message, route)

    protocols = {
        "Onion L=1": onion_factory(1),
        "Onion L=3": onion_factory(3),
        "TPS s=5 tau=3": tps_factory,
        "ALAR k=3": lambda m: AlarSession(m, segments=3, copies_per_segment=10),
        "Epidemic": lambda m: EpidemicSession(m),
    }
    series = []
    for label, factory in protocols.items():
        outcomes = run_sessions(factory)
        series.append(
            Series(
                label=label,
                points=tuple(simulated_delivery_curve(outcomes, deadlines)),
            )
        )
    return FigureResult(
        figure_id="Fig. E2",
        title="Delivery rate across anonymous DTN protocols",
        x_label="Deadline (minutes)",
        y_label="Delivery rate",
        series=tuple(series),
    )
