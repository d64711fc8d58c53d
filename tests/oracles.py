"""Independent reference computations the tests check the library against.

Everything here is written directly on numpy primitives — none of it calls
into debias_embed — so a bug in the library cannot hide in its own oracle.
"""

import numpy as np


def excess_kurtosis(values):
    """Sample excess kurtosis m4/m2^2 - 3 of a 1-D array, centered."""
    v = np.asarray(values, dtype=np.float64)
    c = v - v.mean()
    m2 = np.mean(c**2)
    if m2 == 0.0:
        return -3.0
    return float(np.mean(c**4) / m2**2 - 3.0)


def grid_best_direction_2d(rows, n_grid=10_000):
    """Best unit direction in the plane by exhaustive angle grid.

    Returns (best_excess_kurtosis, best_direction).
    """
    rows = np.asarray(rows, dtype=np.float64)
    angles = np.linspace(0.0, np.pi, n_grid, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)])  # 2 x n_grid
    proj = rows @ dirs
    centered = proj - proj.mean(axis=0)
    m2 = np.mean(centered**2, axis=0)
    m4 = np.mean(centered**4, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kurt = np.where(m2 > 0.0, m4 / m2**2 - 3.0, -3.0)
    i = int(np.argmax(kurt))
    return float(kurt[i]), dirs[:, i].copy()


def eig_top_directions_2d(rows):
    """Closed-form eigenvectors of rows.T @ rows for 2-column data.

    Solves the 2x2 symmetric eigenproblem with the trace/determinant
    quadratic, no SVD. Returns (eigenvalues desc, eigenvectors as rows).
    """
    rows = np.asarray(rows, dtype=np.float64)
    g = rows.T @ rows
    a, b, c = g[0, 0], g[0, 1], g[1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(max(half_tr**2 - (a * c - b * b), 0.0))
    lam1, lam2 = half_tr + disc, half_tr - disc
    vecs = []
    for lam in (lam1, lam2):
        # (g - lam I) v = 0; take the larger row for stability
        r1 = np.array([a - lam, b])
        r2 = np.array([b, c - lam])
        row = r1 if np.linalg.norm(r1) >= np.linalg.norm(r2) else r2
        v = np.array([-row[1], row[0]])
        n = np.linalg.norm(v)
        if n == 0.0:  # degenerate (isotropic) case: any direction works
            v, n = np.array([1.0, 0.0]), 1.0
        vecs.append(v / n)
    return np.array([lam1, lam2]), np.array(vecs)


def principal_angle_sines(a_basis, b_basis):
    """Singular values of (I - A^T A) B^T: sines of the principal angles.

    Both arguments are k x d with orthonormal rows. All sines near zero
    means the two bases span the same subspace.
    """
    a = np.asarray(a_basis, dtype=np.float64)
    b = np.asarray(b_basis, dtype=np.float64)
    residual = b.T - a.T @ (a @ b.T)
    return np.linalg.svd(residual, compute_uv=False)


def best_rotation_by_grid(x, y, n_grid=1_000_000):
    """Exhaustive 2-D rotation fit: minimize sum ||R x_i - y_i||^2 over angles.

    Returns (best_angle, best_cost). Reflections are not searched, so use
    on data generated by a pure rotation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    angles = np.linspace(-np.pi, np.pi, n_grid, endpoint=False)
    cos_t, sin_t = np.cos(angles), np.sin(angles)
    # cost(theta) = const - 2 * trace(R^T M) with M = y^T x cross-covariance
    m = y.T @ x
    trace_term = (m[0, 0] + m[1, 1]) * cos_t + (m[1, 0] - m[0, 1]) * sin_t
    const = np.sum(x * x) + np.sum(y * y)
    costs = const - 2.0 * trace_term
    i = int(np.argmin(costs))
    return float(angles[i]), float(costs[i])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def central_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def softmax_xent(weights, bias, features, labels_onehot):
    """Reference softmax cross-entropy, computed the slow explicit way."""
    scores = features @ weights.T + bias
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs = probs / probs.sum(axis=1, keepdims=True)
    picked = (probs * labels_onehot).sum(axis=1)
    return float(-np.mean(np.log(picked)))


def mean_cosine_distance(x, references):
    """1 - cos averaged over reference vectors, written longhand."""
    x = np.asarray(x, dtype=np.float64)
    total = 0.0
    for r in references:
        r = np.asarray(r, dtype=np.float64)
        total += 1.0 - float(x @ r) / (np.linalg.norm(x) * np.linalg.norm(r))
    return total / len(references)


def row_span_sines(basis, rows):
    """Sines of the principal angles between a basis and the row span of rows.

    The span comes from a QR factorization of rows.T; a basis vector
    inside the span has a sine of zero, one orthogonal to it a sine of one.
    """
    q, _ = np.linalg.qr(np.asarray(rows, dtype=np.float64).T)
    return principal_angle_sines(q.T, basis)


def vec_text(vocab, matrix, precision):
    """A whole ``.vec`` file as text, one value formatted at a time.

    Each value goes through ``format(float(x), ".<p>g")`` on its own, the
    way the first writer of the format did it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}\n"]
    for word, row in zip(vocab, matrix):
        lines.append(word + " " + " ".join(format(float(x), f".{precision}g") for x in row) + "\n")
    return "".join(lines)


def vec_rows(text, dim):
    """The words and the ``(rows, dim)`` float64 rows of ``.vec`` lines after
    the header, each value read by ``float()`` from its own token.

    Lines end at ``\n`` and fields at whitespace; the first field is the
    word, and a line without fields is skipped.
    """
    words, rows = [], []
    for line in text.split("\n"):
        fields = line.split()
        if fields:
            assert len(fields) == dim + 1, line
            words.append(fields[0])
            rows.append([float(token) for token in fields[1:]])
    return words, np.array(rows, dtype=np.float64).reshape(len(rows), dim)


def reference_train(features, labels, n_classes, learning_rate, epochs, seed):
    """Full-batch softmax-regression descent on materialized features.

    Row-major logits (n x classes), the weights drawn as
    ``0.01 * default_rng(seed).standard_normal((classes, dim))``, the bias
    zero. Returns (weights, bias, loss_history), the history holding the
    loss before each step and after the last.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    records = np.arange(n)
    weights = 0.01 * np.random.default_rng(seed).standard_normal((n_classes, features.shape[1]))
    bias = np.zeros(n_classes)

    def loss_and_grad(weights, bias):
        logits = features @ weights.T + bias
        logits = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[records, labels] + 1e-300)))
        probs[records, labels] -= 1.0
        probs /= n
        return loss, probs.T @ features, probs.sum(axis=0)

    history = []
    for _ in range(epochs):
        loss, d_weights, d_bias = loss_and_grad(weights, bias)
        history.append(loss)
        weights = weights - learning_rate * d_weights
        bias = bias - learning_rate * d_bias
    history.append(loss_and_grad(weights, bias)[0])
    return weights, bias, history


def newton_softmax(features, labels, n_classes, l2, grad_tol=1e-12, max_iter=100):
    """(weights, bias) minimizing mean softmax cross-entropy + (l2 / 2) * ||W||^2.

    Damped Newton on the dense Hessian, for tiny problems: row-major
    logits (n x classes), the bias an extra column of ones and not
    penalized, a start at zero. The Hessian is singular along a shift
    common to all biases, so each step is the minimum-norm least-squares
    solution, which keeps the biases summing to zero; it is halved until
    the objective does not rise. Stops once no gradient component
    exceeds ``grad_tol``.
    """
    features = np.asarray(features, dtype=np.float64)
    n, dim = features.shape
    augmented = np.hstack([features, np.ones((n, 1))])
    onehot = np.eye(n_classes)[labels]
    penalized = np.ones((n_classes, dim + 1))
    penalized[:, dim] = 0.0

    def probabilities(theta):
        logits = augmented @ theta.T
        logits = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def objective(theta):
        picked = (probabilities(theta) * onehot).sum(axis=1)
        return float(-np.mean(np.log(picked))) + 0.5 * l2 * float(np.sum((penalized * theta) ** 2))

    theta = np.zeros((n_classes, dim + 1))
    for _ in range(max_iter):
        probs = probabilities(theta)
        grad = (probs - onehot).T @ augmented / n + l2 * penalized * theta
        if np.abs(grad).max() <= grad_tol:
            break
        size = dim + 1
        hessian = np.zeros((n_classes * size, n_classes * size))
        for a in range(n_classes):
            for b in range(n_classes):
                weight = probs[:, a] * ((a == b) - probs[:, b]) / n
                hessian[a * size:(a + 1) * size, b * size:(b + 1) * size] = (
                    augmented.T @ (augmented * weight[:, None]))
        hessian += np.diag(l2 * penalized.ravel())
        step = np.linalg.lstsq(hessian, grad.ravel(), rcond=None)[0].reshape(theta.shape)
        current, t = objective(theta), 1.0
        while objective(theta - t * step) > current and t > 1e-12:
            t /= 2
        theta = theta - t * step
    return theta[:, :dim], theta[:, dim]


def cross_score_cell(diffs_1, diffs_2, neutral_2, epsilon):
    """Mean relative change of |<w, b2>| over the rows w of ``neutral_2``
    once b1 is projected out of w; rows with |<w, b2>| below ``epsilon`` are
    left out.

    b1 and b2 are the top directions of the difference rows ``diffs_1`` and
    ``diffs_2``: the eigenvector of D^T D with the largest eigenvalue, from
    ``np.linalg.eigh``, not an SVD. Only absolute projections enter, so
    their signs do not matter. The change is computed one word at a time.
    """
    def top(diffs):
        d = np.asarray(diffs, dtype=np.float64)
        return np.linalg.eigh(d.T @ d)[1][:, -1]

    b1, b2 = top(diffs_1), top(diffs_2)
    changes = []
    for w in np.asarray(neutral_2, dtype=np.float64):
        before = abs(float(w @ b2))
        if before >= epsilon:
            after = abs(float((w - float(w @ b1) * b1) @ b2))
            changes.append(abs(after - before) / before)
    return sum(changes) / len(changes)


# Projection pursuit's batched ascent as it was written before its per-iteration
# overhead was cut: gathers at the live count, np.mean/np.linalg.norm and
# unconditional flat-column masks. The library's ascent must give the same bits,
# so this copy is the bitwise reference; only the module constants became
# parameters (``grad_tol`` for PPA_GRAD_TOL, ``max_iter`` for PPA_MAX_ITER).


def _kurtosis_and_grad(coords_c, u):
    """Excess kurtosis of ``coords_c @ u`` and its gradient, one column per direction."""
    # coords_c is column-centered, so projections come out centered too
    z = coords_c @ u
    z2 = z * z
    m2 = np.mean(z2, axis=0)
    m4 = np.mean(z2 * z2, axis=0)
    flat = m2 < 1e-30
    m2 = np.where(flat, 1.0, m2)
    grad = coords_c.T @ ((4.0 / coords_c.shape[0]) * z * (z2 / m2**2 - m4 / m2**3))
    grad[:, flat] = 0.0
    return np.where(flat, -3.0, m4 / m2**2 - 3.0), grad


def _tangent(projector, grad, u):
    direction = projector @ grad
    direction -= np.sum(direction * u, axis=0) * u
    return direction, np.linalg.norm(direction, axis=0)


def ppa_ascend(coords_c, starts, projector, grad_tol, max_iter):
    """Projected gradient ascent on the unit sphere, one column per start.

    Every column runs its own search: backtracking (Armijo) line search
    whose step doubles after an accepted step, up to 1e6, and halves
    after a rejected one, giving up below 1e-18; at most ``max_iter``
    accepted steps; stop once the tangent gradient is below ``grad_tol``.
    Returns the final columns and their values (-inf for a start that
    vanishes under the projector).
    """
    u = projector @ starts
    norms = np.linalg.norm(u, axis=0)
    live = norms > 0.0
    u /= np.where(live, norms, 1.0)
    value, grad = _kurtosis_and_grad(coords_c, u)
    value[~live] = -np.inf
    direction, gnorm = _tangent(projector, grad, u)
    live &= gnorm >= grad_tol
    step = np.ones(u.shape[1])
    accepted = np.zeros(u.shape[1], dtype=int)
    while live.any():
        idx = np.flatnonzero(live)
        cand = projector @ (u[:, idx] + step[idx] * direction[:, idx])
        cn = np.linalg.norm(cand, axis=0)
        cand /= np.where(cn > 0.0, cn, 1.0)
        cand_value, cand_grad = _kurtosis_and_grad(coords_c, cand)
        ok = (cn > 0.0) & (cand_value > value[idx] + 1e-4 * step[idx] * gnorm[idx] ** 2)
        up, down = idx[ok], idx[~ok]
        u[:, up] = cand[:, ok]
        value[up] = cand_value[ok]
        direction[:, up], gnorm[up] = _tangent(projector, cand_grad[:, ok], cand[:, ok])
        step[up] = np.minimum(step[up] * 2.0, 1e6)
        accepted[up] += 1
        live[up] = (gnorm[up] >= grad_tol) & (accepted[up] < max_iter)
        step[down] *= 0.5
        live[down] = step[down] > 1e-18
    return u, value
