"""Grothendieck, Schubert, Lascoux and key polynomials, snow-diagram
statistics, K-Kohnert enumeration, and the q-Bell Hilbert series, all in
exact integer arithmetic."""

from . import compositions, diagrams, kkohnert, permutations, polyring, qbell, schubert
from .compositions import (
    dark_inverse,
    enumerate_cn,
    enumerate_snowy_cn,
    is_snowy,
    raj_equivalent,
    snowy_from_rajcode,
    snowy_representative,
)
from .diagrams import (
    Diagram,
    RookDiagram,
    SnowDiagram,
    dark,
    key_diagram,
    overline,
    render_ascii,
    rothe_diagram,
    snow,
    stair,
)
from .kkohnert import (
    GhostDiagram,
    PackedClosure,
    enumerate_kkd,
    kkohnert_polynomial,
    lascoux_via_kkd,
    up_ghost_move,
    up_move,
    witness_diagram,
)
from .permutations import (
    is_inverse_fireworks,
    lis_from,
    schensted,
    shadow_lines,
    turning_points,
)
from .polyring import (
    Monomial,
    Polynomial,
    beta_component,
    demazure,
    divided_difference,
    leading_monomial_taillex,
    swap_action,
    top_component,
)
from .qbell import (
    bell,
    enumerate_rook_n,
    gr_stat,
    hilb_v_truncated,
    hilb_vn,
    nw_stat,
    q_bell,
    q_stirling,
    stirling,
)
from .schubert import (
    expand_grothendieck_into_lascoux,
    expand_top_into_snowy_basis,
    grothendieck,
    key_polynomial,
    lascoux,
    schubert_polynomial,
    snowy_top_lascoux,
    top_grothendieck,
    top_lascoux,
    vhat_basis,
)

__version__ = "0.1.0"
