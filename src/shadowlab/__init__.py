"""Finite-horizon tracking checks for volume-preserving maps of the n-torus (the circle is n = 1).

The package turns infinite-horizon tracking notions -- direct, inverse, weak
inverse, and orbital inverse shadowing -- into finite, decidable searches:
an orbit segment, a method that proposes pseudo-orbits, an objective over
candidate starting points, and a verdict that is tracked (with a witness),
failed (with a covering certificate), or inconclusive (for want of a horizon
Lipschitz bound or of a fine enough grid).
"""

from .geometry import (
    TorusPoint,
    dist_array,
    lattice_points,
    reduce_to_unit,
    sq_dist_array,
    torus_dist,
    wrap_to_half,
)
from .systems import (
    CAT_MATRIX,
    GOLDEN_ROTATION,
    SHEAR_MATRIX,
    ConstructionError,
    LinearAutomorphism,
    SystemMap,
    c1_distance,
    cat_map,
    circle_identity,
    library_maps,
    make_conservative_perturbation,
    make_linear,
    make_rotation,
    make_translation_method_map,
    map_from_descriptor,
    map_to_descriptor,
    shear_map,
    torus_identity,
    volume_defect,
)
from .orbits import (
    TRUE_ORBIT_DELTA,
    MethodSpec,
    PseudoOrbit,
    method_from_map,
    orbit_csv_text,
    orbit_segment,
    random_method,
)
from .shadowing import (
    NewtonShadowResult,
    ShadowVerdict,
    check_direct_shadowing,
    check_inverse_shadowing,
    check_orbital_inverse,
    check_weak_inverse,
    horizon_lipschitz_bound,
    orbital_objective,
    resolve_threads,
    shadow_solve_newton,
    tracking_objective,
    weak_objective,
)
from .hyperbolicity import AnosovCertificate, anosov_certificate_linear
from .experiments import (
    EXPERIMENTS,
    ExperimentReport,
    agreement,
    conclusion_from_verdicts,
    evaluate_rule,
    load_expectations,
    run_drift_inverse,
    run_drift_orbital,
    run_drift_weak,
    run_property_gallery,
    run_rotation_dichotomy,
)

__version__ = "0.1.0"
