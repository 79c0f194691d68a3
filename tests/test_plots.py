"""SVG emission: well-formed markup with the expected primitives."""
import xml.etree.ElementTree as ET

from cnapwp.metrics import ForgettingMatrix, forgetting_matrix
from cnapwp.plots import accuracy_curve_svg, forgetting_heatmap_svg

from conftest import METRICS_DRIFTS, METRICS_LABELS, METRICS_HITS, scripted_records

SVG = "{http://www.w3.org/2000/svg}"


def test_accuracy_curve_svg_structure(tmp_path):
    path = tmp_path / "curve.svg"
    curves = {
        "full": [0.2, 0.4, 0.6, 0.8],
        "no_prompt": [0.2, 0.3, 0.3, 0.3],
    }
    accuracy_curve_svg(curves, path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG}svg"
    polylines = root.findall(f"{SVG}polyline")
    assert len(polylines) == 2
    for line in polylines:
        assert len(line.attrib["points"].split()) == 4
    texts = [t.text for t in root.findall(f"{SVG}text")]
    assert "full" in texts and "no_prompt" in texts
    assert "rolling accuracy" in texts


def test_accuracy_curve_svg_escapes_names(tmp_path):
    path = tmp_path / "curve.svg"
    accuracy_curve_svg({"a<b&c": [0.5, 0.5]}, path, title="t<1&2>")
    raw = path.read_text()
    assert "a&lt;b&amp;c" in raw
    assert "t&lt;1&amp;2&gt;" in raw
    ET.parse(path)  # still well-formed


def test_accuracy_curve_svg_thins_long_series(tmp_path):
    path = tmp_path / "curve.svg"
    n = 10_000
    accuracy_curve_svg({"long": [0.5] * n}, path, width=300, height=200)
    root = ET.parse(path).getroot()
    (line,) = root.findall(f"{SVG}polyline")
    assert len(line.attrib["points"].split()) < n


def test_accuracy_curve_svg_empty_inputs(tmp_path):
    path = tmp_path / "curve.svg"
    accuracy_curve_svg({}, path)
    assert ET.parse(path).getroot().findall(f"{SVG}polyline") == []


def test_heatmap_cells_and_signed_labels(tmp_path):
    records = scripted_records(METRICS_HITS)
    matrix = forgetting_matrix(records, METRICS_DRIFTS, METRICS_LABELS)
    path = tmp_path / "heat.svg"
    forgetting_heatmap_svg(matrix, path)
    root = ET.parse(path).getroot()
    rects = root.findall(f"{SVG}rect")
    # background plus a 3x3 grid for tasks A, B, C over occurrences 1..3
    assert len(rects) == 1 + 9
    texts = [t.text for t in root.findall(f"{SVG}text")]
    assert "+50.00" in texts  # task A, second occurrence
    assert texts.count("+0.00") == 4  # the A1, B1, C1 references and the A3 tie
    empties = [r for r in rects if r.attrib.get("fill") == "#eeeeee"]
    assert len(empties) == 4  # B and C never recur past occurrence 1
    assert {t.text for t in root.findall(f"{SVG}text")} >= {"A", "B", "C", "occ 1", "occ 2", "occ 3"}


def test_heatmap_escapes_task_names(tmp_path):
    matrix = ForgettingMatrix({("x&y", 1): 1.0})
    assert (matrix.tasks, matrix.deltas) == (("x&y",), {("x&y", 1): 0.0})
    path = tmp_path / "heat.svg"
    forgetting_heatmap_svg(matrix, path)
    assert "x&amp;y" in path.read_text()
    ET.parse(path)
