"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: plain loops, Fractions, dicts. None
of it shares code paths with the package: the per-region references take
:class:`RegionRecord`s that :func:`region_geometry` builds from a label map.
The exceptions are :func:`oracle_pipeline`, which reads the package's
``gradient_map``, since the Sobel loop here agrees with it only to 1e-12, and
:func:`phantom_reference`, which takes the phantom's constants and texture
synthesis from the package and redoes only the blob math, on the full image.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from mammocad.errors import (
    DegenerateRegion,
    InvalidPixelValue,
    MalformedHeader,
    RegionTooSmall,
    TruncatedData,
    UnsupportedMaxval,
)
from mammocad.features import gradient_map
from mammocad.image import GrayImage
from mammocad.phantom import (
    _BG_BASE,
    _BG_NOISE,
    _BG_RAMP,
    _BLOB_AMP,
    _BLOB_SHAPE,
    _BLOB_SIGMA_FRAC,
    _TEXTURE_AMP,
    _TEXTURE_GAIN,
    _TEXTURE_HURST,
    _TRUTH_LEVEL,
    _fbm_field,
)


def otsu_sweep(counts) -> int:
    """Exhaustive between-class-variance argmax in exact rational arithmetic.

    Scores w0 * w1 * (mu0 - mu1)^2 literally with Fractions for every t
    in [0, 254]; ties break low. A single occupied bin returns that bin.
    """
    counts = [int(c) for c in counts]
    total = sum(counts)
    grand = sum(v * c for v, c in enumerate(counts))
    occupied = [v for v, c in enumerate(counts) if c]
    if len(occupied) == 1:
        return occupied[0]
    best_t = 0
    best = Fraction(-1)
    c0 = s0 = 0
    for t in range(255):
        c0 += counts[t]
        s0 += t * counts[t]
        c1 = total - c0
        if c0 == 0 or c1 == 0:
            score = Fraction(0)
        else:
            mu0 = Fraction(s0, c0)
            mu1 = Fraction(grand - s0, c1)
            score = Fraction(c0, total) * Fraction(c1, total) * (mu0 - mu1) ** 2
        if score > best:
            best = score
            best_t = t
    return best_t


def blanket_recursion(img, region, r_max):
    """Dict-based blanket recursion; also asserts the sandwich invariant."""
    vals = {(x, y): float(img.pixels[y, x]) for x, y in region.pixels}
    upper = dict(vals)
    lower = dict(vals)
    scales, areas = [], []
    for r in range(1, r_max + 1):
        new_u, new_b = {}, {}
        for x, y in vals:
            cand_u = [upper[(x, y)] + 1.0]
            cand_b = [lower[(x, y)] - 1.0]
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                q = (x + dx, y + dy)
                if q in vals:
                    cand_u.append(upper[q])
                    cand_b.append(lower[q])
            new_u[(x, y)] = max(cand_u)
            new_b[(x, y)] = min(cand_b)
        upper, lower = new_u, new_b
        assert all(lower[p] <= vals[p] <= upper[p] for p in vals)
        assert all(upper[p] >= vals[p] + r and lower[p] <= vals[p] - r for p in vals)
        volume = sum(upper[p] - lower[p] for p in vals)
        scales.append(r)
        areas.append(volume / (2.0 * r))
    return scales, areas


def padded_blanket_areas(img, region, r_max):
    """Blanket areas over the region's bounding box, one padded shift per side.

    Floats with -inf/+inf standing in for the missing neighbours outside the
    region; the per-region form the package used before its one-pass table.
    """
    x0, y0, w, h = region.bbox
    mask = np.zeros((h, w), dtype=bool)
    surf = np.zeros((h, w), dtype=np.float64)
    for x, y in region.pixels:
        mask[y - y0, x - x0] = True
        surf[y - y0, x - x0] = img.pixels[y, x]

    def shift_extreme(arr, mode):
        fill = -np.inf if mode == "max" else np.inf
        padded = np.pad(np.where(mask, arr, fill), 1, constant_values=fill)
        shifts = (padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:])
        reduce = np.maximum.reduce if mode == "max" else np.minimum.reduce
        return reduce(shifts)

    upper = surf.copy()
    lower = surf.copy()
    scales, areas = [], []
    for r in range(1, r_max + 1):
        upper = np.where(mask, np.maximum(upper + 1, shift_extreme(upper, "max")), upper)
        lower = np.where(mask, np.minimum(lower - 1, shift_extreme(lower, "min")), lower)
        volume = float((upper - lower)[mask].sum())
        scales.append(r)
        areas.append(volume / (2 * r))
    return scales, areas


def box_count(img, region):
    """Differential box counting over the region's bounding box, cell by cell.

    For each grid side s (powers of two up to half the short bbox side) the
    box height is h = s * 256 / M with M the short side; every s x s cell,
    clipped at the box's right and bottom edges, adds
    ceil(max/h) - floor(min/h) + 1 boxes. D is the slope of log N(s) on
    log(1/s). The loop form the package used before its array reductions.
    """
    x0, y0, w, h = region.bbox
    short = min(w, h)
    if short < 8:
        raise RegionTooSmall(f"bounding box {w}x{h} below 8x8")
    window = img.pixels[y0 : y0 + h, x0 : x0 + w].astype(np.float64)
    sizes, counts = [], []
    s = 2
    while s <= short // 2:
        box_h = s * 256.0 / short
        total = 0
        for cy in range(0, h, s):
            for cx in range(0, w, s):
                cell = window[cy : cy + s, cx : cx + s]
                total += math.ceil(cell.max() / box_h) - math.floor(cell.min() / box_h) + 1
        sizes.append(s)
        counts.append(total)
        s *= 2
    x = np.log(1.0 / np.asarray(sizes, dtype=np.float64))
    y = np.log(np.asarray(counts, dtype=np.float64))
    x_mean = x.mean()
    return float(((x - x_mean) * (y - y.mean())).sum() / ((x - x_mean) ** 2).sum())


def sobel_magnitude(pixels):
    """Loop convolution of the 1/8-normalized 3x3 Sobel pair, edge-padded."""
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    h, w = pixels.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            gx = gy = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    v = float(pixels[yy, xx])
                    gx += kx[dy + 1][dx + 1] * v
                    gy += ky[dy + 1][dx + 1] * v
            out[y, x] = math.hypot(gx / 8.0, gy / 8.0)
    return out


def naive_features(region, img, grad):
    """Every descriptor recomputed with plain loops over the region fields."""
    n = len(region.pixels)
    x0, y0, w, h = region.bbox
    mean_grad = sum(grad[y, x] for x, y in region.pixels) / n
    bnd_grad = sum(grad[y, x] for x, y in region.boundary) / len(region.boundary)
    mean_val = sum(float(img.pixels[y, x]) for x, y in region.pixels) / n
    var = sum((float(img.pixels[y, x]) - mean_val) ** 2 for x, y in region.pixels) / n
    cx, cy = region.centroid
    dists = [math.hypot(x - cx, y - cy) for x, y in region.boundary]
    d_mean = sum(dists) / len(dists)
    edv = sum((d - d_mean) ** 2 for d in dists) / len(dists) / d_mean
    inside = {(x, y) for x, y in region.pixels}
    outside_vals = [
        float(img.pixels[y, x])
        for y in range(y0, y0 + h)
        for x in range(x0, x0 + w)
        if (x, y) not in inside
    ]
    if outside_vals:
        diff = mean_val - sum(outside_vals) / len(outside_vals)
    else:
        diff = mean_val
    return {
        "area": n,
        "compactness": n / (w * h),
        "mean_gradient": mean_grad,
        "boundary_gradient": bnd_grad,
        "gray_std": math.sqrt(var),
        "edge_distance_variance": edv,
        "intensity_diff": diff,
    }


# The per-region descriptors the package computed before its one-pass
# feature table, one function per field over a RegionRecord's lists; the
# table must equal them bit for bit.


def area(region):
    """Pixel count of the region."""
    return len(region.pixels)


def compactness(region):
    """Region area over its bounding-rectangle area; 1.0 fills the box."""
    _, _, w, h = region.bbox
    return len(region.pixels) / (w * h)


def mean_region_gradient(region, grad):
    """Average gradient magnitude over all region pixels."""
    return float(sum(grad[y, x] for x, y in region.pixels) / len(region.pixels))


def mean_boundary_gradient(region, grad):
    """Average gradient magnitude over the boundary pixels; boundary sharpness."""
    if not region.boundary:
        raise DegenerateRegion(f"region {region.id} has no boundary pixels")
    return float(sum(grad[y, x] for x, y in region.boundary) / len(region.boundary))


def gray_std(region, img):
    """Population standard deviation of the region's gray values."""
    values = np.array([img.pixels[y, x] for x, y in region.pixels], dtype=np.float64)
    return float(np.sqrt(((values - values.mean()) ** 2).mean()))


def edge_distance_variance(region):
    """Variance of boundary-to-centroid distances, normalized by their mean."""
    cx, cy = region.centroid
    dists = np.array(
        [math.hypot(x - cx, y - cy) for x, y in region.boundary], dtype=np.float64
    )
    d_mean = float(dists.mean())
    if d_mean == 0.0:
        raise DegenerateRegion("all boundary pixels coincide with the centroid")
    return float(((dists - d_mean) ** 2).mean() / d_mean)


def intensity_diff(region, img):
    """Mean gray inside the region minus mean gray of the rest of its bbox."""
    x0, y0, w, h = region.bbox
    inside = sum(int(img.pixels[y, x]) for x, y in region.pixels)
    n_inside = len(region.pixels)
    box = img.pixels[y0 : y0 + h, x0 : x0 + w]
    n_outside = w * h - n_inside
    if n_outside == 0:
        return inside / n_inside
    outside = int(box.sum(dtype=np.int64)) - inside
    return inside / n_inside - outside / n_outside


def region_features(region, img, grad):
    """The seven descriptors of one region, by name, from the functions above."""
    return {
        "area": area(region),
        "compactness": compactness(region),
        "mean_gradient": mean_region_gradient(region, grad),
        "boundary_gradient": mean_boundary_gradient(region, grad),
        "gray_std": gray_std(region, img),
        "edge_distance_variance": edge_distance_variance(region),
        "intensity_diff": intensity_diff(region, img),
    }


def line_fit(scales, areas):
    """(D, intercept, residual) of log A on log r, fitted on one 1-D row.

    The per-region fit the package ran before fitting all rows at once.
    """
    x = np.log(np.asarray(scales, dtype=np.float64))
    y = np.log(np.asarray(areas, dtype=np.float64))
    x_mean = x.mean()
    y_mean = y.mean()
    slope = float(((x - x_mean) * (y - y_mean)).sum() / ((x - x_mean) ** 2).sum())
    intercept = float(y_mean - slope * x_mean)
    residual = float(((y - (slope * x + intercept)) ** 2).sum())
    return 2.0 - slope, intercept, residual


def connected_components_8(pixels):
    """Number of 8-connected components of a set of (x, y) tuples."""
    todo = set(pixels)
    count = 0
    while todo:
        count += 1
        stack = [todo.pop()]
        while stack:
            x, y = stack.pop()
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    q = (x + dx, y + dy)
                    if q in todo:
                        todo.remove(q)
                        stack.append(q)
    return count


def touching_pairs(labels):
    """Every ordered pair (a, b) of distinct nonzero labels on 4-adjacent pixels."""
    pairs = set()
    height, width = labels.shape
    for y in range(height):
        for x in range(width):
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx < width and ny < height:
                    a, b = int(labels[y, x]), int(labels[ny, nx])
                    if a and b and a != b:
                        pairs.add((a, b))
                        pairs.add((b, a))
    return pairs


def slice_means(values, lengths):
    """Each consecutive slice's ``np.add.reduce`` over its length, one slice at a time."""
    means = []
    at = 0
    for n in lengths:
        means.append(np.add.reduce(values[at : at + n]) / n)
        at += n
    return np.array(means, dtype=np.float64)


def diamond_square(n_exp, roughness, rng):
    """Classic midpoint-displacement surface on a (2^n + 1) grid, as uint8."""
    size = (1 << n_exp) + 1
    g = np.zeros((size, size))
    g[0, 0], g[0, -1], g[-1, 0], g[-1, -1] = rng.uniform(80, 180, 4)
    step = size - 1
    scale = 64.0
    while step > 1:
        half = step // 2
        for y in range(half, size, step):
            for x in range(half, size, step):
                avg = (
                    g[y - half, x - half]
                    + g[y - half, x + half]
                    + g[y + half, x - half]
                    + g[y + half, x + half]
                ) / 4.0
                g[y, x] = avg + rng.uniform(-scale, scale)
        for y in range(0, size, half):
            for x in range((y + half) % step, size, step):
                vals = []
                if y >= half:
                    vals.append(g[y - half, x])
                if y + half < size:
                    vals.append(g[y + half, x])
                if x >= half:
                    vals.append(g[y, x - half])
                if x + half < size:
                    vals.append(g[y, x + half])
                g[y, x] = sum(vals) / len(vals) + rng.uniform(-scale, scale)
        step = half
        scale *= 0.5**roughness
    return np.clip(g, 0, 255).astype(np.uint8)


_N4 = ((0, -1), (0, 1), (-1, 0), (1, 0))
_N8 = _N4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def quadtree_split(pixels, bits, tau_split):
    """Recursive quadtree split; leaves as (x, y, w, h) in NW, NE, SW, SE order.

    A block splits into ceil/floor quadrants while its foreground values
    spread more than ``tau_split``; quadrants with a zero side are dropped.
    """
    height, width = bits.shape
    leaves = []

    def descend(x, y, w, h):
        vals = [
            int(pixels[yy, xx])
            for yy in range(y, y + h)
            for xx in range(x, x + w)
            if bits[yy, xx]
        ]
        if vals and max(vals) - min(vals) > tau_split:
            hl = h - h // 2
            wl = w - w // 2
            for cy, ch in ((y, hl), (y + hl, h - hl)):
                for cx, cw in ((x, wl), (x + wl, w - wl)):
                    if cw > 0 and ch > 0:
                        descend(cx, cy, cw, ch)
            return
        leaves.append((x, y, w, h))

    descend(0, 0, width, height)
    return leaves


def flood_merge(pixels, bits, blocks, tau_merge):
    """Seed flood fill plus pixel-rescanning merge; returns the label array.

    Seeds are the 8-connected foreground components of each block, numbered
    over blocks in raster order of their top-left corner, then in raster
    order of each component's first pixel. Regions are scanned by ascending
    id; each absorbs its smallest-id 4-neighbour whose mean is within
    ``tau_merge`` of its own until none is, and passes repeat until one
    makes no merge. Final ids follow the raster order of first pixels.
    """
    return flood_merge_passes(pixels, bits, blocks, tau_merge)[0]


def flood_seeds(bits, blocks):
    """:func:`flood_merge`'s seeds by flood fill: the label array and each id's (x, y) pixels."""
    height, width = bits.shape
    labels = np.zeros((height, width), dtype=np.int64)
    members = {}
    next_id = 1
    for x0, y0, w, h in sorted(blocks, key=lambda b: (b[1], b[0])):
        for sy in range(y0, y0 + h):
            for sx in range(x0, x0 + w):
                if not bits[sy, sx] or labels[sy, sx]:
                    continue
                rid = next_id
                next_id += 1
                labels[sy, sx] = rid
                stack = [(sx, sy)]
                members[rid] = []
                while stack:
                    cx, cy = stack.pop()
                    members[rid].append((cx, cy))
                    for dx, dy in _N8:
                        nx, ny = cx + dx, cy + dy
                        if (
                            x0 <= nx < x0 + w
                            and y0 <= ny < y0 + h
                            and bits[ny, nx]
                            and not labels[ny, nx]
                        ):
                            labels[ny, nx] = rid
                            stack.append((nx, ny))
    return labels, members


def flood_merge_passes(pixels, bits, blocks, tau_merge):
    """:func:`flood_merge`'s label array and the number of merges in each pass."""
    height, width = bits.shape
    labels, members = flood_seeds(bits, blocks)
    total = {rid: sum(int(pixels[y, x]) for x, y in pts) for rid, pts in members.items()}

    def neighbours(rid):
        seen = set()
        for x, y in members[rid]:
            for dx, dy in _N4:
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    other = int(labels[ny, nx])
                    if other and other != rid:
                        seen.add(other)
        return sorted(seen)

    passes = []
    while not passes or passes[-1]:
        passes.append(0)
        for rid in sorted(members):
            if rid not in members:
                continue
            while True:
                mean = total[rid] / len(members[rid])
                target = None
                for other in neighbours(rid):
                    if abs(mean - total[other] / len(members[other])) <= tau_merge:
                        target = other
                        break
                if target is None:
                    break
                for x, y in members[target]:
                    labels[y, x] = rid
                members[rid].extend(members.pop(target))
                total[rid] += total.pop(target)
                passes[-1] += 1

    order = sorted(members, key=lambda rid: min((y, x) for x, y in members[rid]))
    final = np.zeros((height, width), dtype=np.int64)
    for new_id, rid in enumerate(order, start=1):
        for x, y in members[rid]:
            final[y, x] = new_id
    return final, passes


class RegionRecord(NamedTuple):
    """One region of a label map, found by :func:`region_geometry`.

    Pixels and boundary are raster-ordered (x, y) lists; a boundary pixel
    lies on the image border or has a 4-neighbour with another label.
    """

    id: int
    pixels: list
    boundary: list
    bbox: tuple  # (x, y, width, height)
    centroid: tuple  # mean (x, y)


def region_geometry(labels):
    """A :class:`RegionRecord` per label id 1..max, by plain loops over the map."""
    height, width = labels.shape
    count = int(labels.max()) if labels.size else 0
    pixels_of = {rid: [] for rid in range(1, count + 1)}
    for y in range(height):
        for x in range(width):
            if labels[y, x]:
                pixels_of[int(labels[y, x])].append((x, y))
    out = []
    for rid in range(1, count + 1):
        pts = pixels_of[rid]
        boundary = [
            (x, y)
            for x, y in pts
            if x in (0, width - 1)
            or y in (0, height - 1)
            or any(labels[y + dy, x + dx] != rid for dx, dy in _N4)
        ]
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        bbox = (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)
        out.append(RegionRecord(rid, pts, boundary, bbox, (sum(xs) / len(xs), sum(ys) / len(ys))))
    return out


_PGM_WHITESPACE = b" \t\r\n\v\f"


def pgm_token(data, pos):
    """Next PNM token at or after ``pos`` and the offset just past it.

    Byte-at-a-time: skips whitespace and '#'-to-end-of-line comments; a
    token ends at whitespace or '#'. Raises MalformedHeader at end of data.
    """
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            eol = data.find(b"\n", pos)
            pos = n if eol < 0 else eol + 1
        elif c in _PGM_WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeader("unexpected end of file in header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _PGM_WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def read_p2(data):
    """Parse P2 bytes token by token into a (height, width) uint8 array.

    Raises the package's error types with its messages, first fault in file
    order wins. The raster is always read as ASCII, so P5 data is not handled.
    """
    magic, pos = pgm_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise MalformedHeader(f"unsupported magic {magic!r}; want P2 or P5")
    dims = []
    for _ in range(3):
        token, pos = pgm_token(data, pos)
        dims.append(token)
    for i, name in enumerate(("width", "height", "maxval")):
        try:
            dims[i] = int(dims[i])
        except ValueError:
            raise MalformedHeader(f"non-numeric {name}: {dims[i]!r}") from None
        if dims[i] < 1:
            raise MalformedHeader(f"{name} must be >= 1, got {dims[i]}")
    width, height, maxval = dims
    if maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} > 255")
    count = width * height
    values = []
    while len(values) < count:
        try:
            token, pos = pgm_token(data, pos)
        except MalformedHeader:
            raise TruncatedData(f"expected {count} samples, found {len(values)}") from None
        try:
            value = int(token)
        except ValueError:
            raise InvalidPixelValue(f"non-numeric sample {token!r}") from None
        if not 0 <= value <= maxval:
            raise InvalidPixelValue(f"sample {value} outside [0, {maxval}]")
        values.append(value)
    return np.array(values, dtype=np.uint8).reshape(height, width)


def report_to_dict(report):
    """The report as a JSON-ready dict: ``vars()`` of its dataclasses.

    Detections are sorted by region id. ``json.dumps(report_to_dict(r),
    indent=2) + "\\n"`` is the reference for ``report_json``'s bytes.
    Shallow: the lists and dicts are the report's own objects.
    """
    return {
        **vars(report),
        "detections": [
            {**vars(det), "features": vars(det.features), "fit": vars(det.fit)}
            for det in sorted(report.detections, key=lambda d: d.region_id)
        ],
    }


def reference_csv(report):
    """The feature CSV of a report: a row per detection by region id, numbers as their repr.

    Ints read as ``int.__repr__`` and floats (``np.float64`` too) as
    ``float.__repr__``.
    """
    lines = ["id,area,cmp,mwg,mg,var,edv,diff,D,label"]
    for det in sorted(report.detections, key=lambda d: d.region_id):
        numbers = [det.region_id, *vars(det.features).values(), det.dimension]
        text = [int.__repr__(v) if isinstance(v, int) else float.__repr__(v) for v in numbers]
        lines.append(",".join([*text, det.label]))
    return "\n".join(lines) + "\n"


def haar_pyramid(pixels, levels):
    """``levels`` halvings, each 2x2 block {a, b, c, d} to round((a+b+c+d)/4), half up."""
    rows = [[int(v) for v in row] for row in pixels]
    for _ in range(levels):
        rows = [
            [
                (rows[y][x] + rows[y][x + 1] + rows[y + 1][x] + rows[y + 1][x + 1] + 2) // 4
                for x in range(0, len(rows[0]), 2)
            ]
            for y in range(0, len(rows), 2)
        ]
    return np.array(rows, dtype=np.uint8)


def oracle_pipeline(img, cfg):
    """The whole pipeline composed from the stage oracles above, in plain loops.

    Returns the report dict without ``timings`` (source ``"<memory>"``), the
    feature CSV text, the label map and the boundary overlay's pixels, for
    ``run_pipeline(img, cfg)``.
    """
    pixels = haar_pyramid(img.pixels, cfg.dwt_levels)
    inverted = np.array([[255 - int(v) for v in row] for row in pixels], dtype=np.uint8)
    height, width = inverted.shape

    counts = [0] * 256
    for v in inverted.ravel().tolist():
        counts[v] += 1
    threshold = otsu_sweep(counts) if cfg.threshold == "auto" else int(cfg.threshold)
    bits = inverted > threshold
    blocks = quadtree_split(inverted, bits, cfg.tau_split)
    labels = flood_merge(inverted, bits, blocks, cfg.tau_merge)
    records = region_geometry(labels)
    working = GrayImage(inverted)

    scales = list(range(1, cfg.r_max + 1))
    fits = {}
    for record in records:
        if len(record.pixels) >= cfg.min_region_pixels:
            _, areas = padded_blanket_areas(working, record, cfg.r_max)
            dimension, intercept, residual = line_fit(scales, areas)
            fits[record.id] = {
                "scales": scales,
                "areas": areas,
                "dimension": dimension,
                "intercept": intercept,
                "residual": residual,
            }
    gated = [rid for rid, fit in fits.items() if cfg.d_min <= fit["dimension"] <= cfg.d_max]

    rules = {
        "min_area": 50,
        "max_area": max(width * height // 4, 50),
        "min_compactness": 0.4,
        "min_boundary_gradient": 2.0,
        "min_intensity_diff": 10.0,
        **cfg.rule_overrides,
    }
    grad = gradient_map(working)
    detections = []
    for rid in gated:
        features = region_features(records[rid - 1], working, grad)
        failed = []
        if features["area"] < rules["min_area"]:
            failed.append("min_area")
        if features["area"] > rules["max_area"]:
            failed.append("max_area")
        if features["compactness"] < rules["min_compactness"]:
            failed.append("min_compactness")
        if features["boundary_gradient"] < rules["min_boundary_gradient"]:
            failed.append("min_boundary_gradient")
        if features["intensity_diff"] < rules["min_intensity_diff"]:
            failed.append("min_intensity_diff")
        detections.append(
            {
                "region_id": rid,
                "features": features,
                "dimension": fits[rid]["dimension"],
                "label": "normal" if failed else "tumor",
                "failed_rules": failed,
                "fit": fits[rid],
            }
        )
    report = {
        "source": "<memory>",
        "image_size": [width, height],
        "threshold_used": threshold,
        "region_count_pre_gate": len(records),
        "region_count_post_gate": len(detections),
        "detections": detections,
    }

    lines = ["id,area,cmp,mwg,mg,var,edv,diff,D,label"]
    for det in detections:
        numbers = [det["region_id"], *det["features"].values(), det["dimension"]]
        lines.append(",".join([repr(v) for v in numbers] + [det["label"]]))
    csv = "\n".join(lines) + "\n"

    overlay = 255 - inverted
    for record in records:
        for x, y in record.boundary:
            overlay[y, x] = 255
    return report, csv, labels, overlay


def phantom_reference(kind, seed, size):
    """``generate_phantom``'s pixels and truth, each blob's math on the full image.

    Every blob's envelope, texture and truth test runs over all size**2
    pixels with ``np.mgrid`` coordinates, and the texture is upsampled by
    ``np.repeat``; the random draws come in the package's order.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)

    field = _BG_BASE + _BG_RAMP * (yy / size)
    field += rng.integers(-_BG_NOISE, _BG_NOISE + 1, size=(size, size))
    truth = np.zeros((size, size), dtype=bool)

    blobs = []  # (x_frac, y_frac, textured)
    if kind == "tumor":
        blobs = [(0.5, 0.5, True)]
    elif kind == "multi":
        blobs = [(0.3, 0.5, True), (0.7, 0.5, False)]

    sigma = _BLOB_SIGMA_FRAC * size
    for x_frac, y_frac, textured in blobs:
        d2 = (xx - x_frac * size) ** 2 + (yy - y_frac * size) ** 2
        envelope = np.exp(-((d2 / (sigma * sigma)) ** (_BLOB_SHAPE // 2)))
        field -= _BLOB_AMP * envelope
        if textured:
            upsample = 8 if size >= 512 else 1
            raw = _fbm_field(-(-size // upsample), _TEXTURE_HURST, rng)
            bounded = _TEXTURE_AMP * np.tanh(_TEXTURE_GAIN * raw)
            texture = np.repeat(np.repeat(bounded, upsample, axis=0), upsample, axis=1)
            field += envelope * texture[:size, :size]
            truth |= envelope >= _TRUTH_LEVEL

    pixels = np.clip(np.rint(field), 0, 255).astype(np.uint8)
    return pixels, truth
