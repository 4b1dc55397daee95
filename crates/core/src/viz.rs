//! Visualization export: GeoJSON builders replacing the demo's
//! Deck.gl + Kafka pipeline. Figures 2 and 3 of the paper are regenerated
//! as GeoJSON feature collections a map client can render directly.

use meos::geo::{Geometry, Point, EARTH_RADIUS_M};
use nebula::prelude::{Record, SchemaRef, Value};
use serde_json::{json, Map, Value as Json};

/// A GeoJSON Point geometry.
pub fn point_geometry(p: &Point) -> Json {
    json!({ "type": "Point", "coordinates": [p.x, p.y] })
}

/// A GeoJSON LineString geometry from points.
pub fn line_geometry(points: &[Point]) -> Json {
    json!({
        "type": "LineString",
        "coordinates": points.iter().map(|p| json!([p.x, p.y])).collect::<Vec<_>>(),
    })
}

/// A GeoJSON geometry for any fence/zone geometry (circles are
/// approximated by 32-gon polygons; radii are metres).
pub fn zone_geometry(g: &Geometry) -> Json {
    match g {
        Geometry::Point(p) => point_geometry(p),
        Geometry::Line(l) => line_geometry(&l.points),
        Geometry::Polygon(poly) => {
            let mut ring: Vec<Json> = poly.exterior.iter().map(|p| json!([p.x, p.y])).collect();
            if let Some(first) = ring.first().cloned() {
                ring.push(first);
            }
            let mut rings = vec![Json::Array(ring)];
            for hole in &poly.holes {
                let mut r: Vec<Json> = hole.iter().map(|p| json!([p.x, p.y])).collect();
                if let Some(first) = r.first().cloned() {
                    r.push(first);
                }
                rings.push(Json::Array(r));
            }
            json!({ "type": "Polygon", "coordinates": rings })
        }
        Geometry::Circle { center, radius } => {
            let k = EARTH_RADIUS_M * std::f64::consts::PI / 180.0;
            let ry = radius / k;
            let rx = radius / (k * center.y.to_radians().cos());
            let mut ring = Vec::with_capacity(33);
            for i in 0..=32 {
                let a = i as f64 / 32.0 * std::f64::consts::TAU;
                ring.push(json!([center.x + rx * a.cos(), center.y + ry * a.sin()]));
            }
            json!({ "type": "Polygon", "coordinates": [ring] })
        }
    }
}

/// A GeoJSON Feature.
pub fn feature(geometry: &Json, props: &Map<String, Json>) -> Json {
    json!({ "type": "Feature", "geometry": geometry, "properties": props })
}

/// A GeoJSON FeatureCollection.
pub fn feature_collection(features: &[Json]) -> Json {
    json!({ "type": "FeatureCollection", "features": features.to_vec() })
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => json!(b),
        Value::Int(i) => json!(i),
        Value::Float(f) => json!(f),
        Value::Text(s) => json!(s.as_ref()),
        Value::Timestamp(t) => json!(t),
        Value::Point { x, y } => json!([x, y]),
        Value::Opaque(o) => json!(format!("<{}>", o.type_tag())),
    }
}

/// Converts result records into point features: the record's `pos_field`
/// becomes the geometry, every other primitive field a property.
pub fn records_to_features(records: &[Record], schema: &SchemaRef, pos_field: &str) -> Vec<Json> {
    let Some(pos_col) = schema.index_of(pos_field) else {
        return Vec::new();
    };
    records
        .iter()
        .filter_map(|r| {
            let (x, y) = r.get(pos_col)?.as_point()?;
            let mut props = Map::new();
            for (i, f) in schema.fields().iter().enumerate() {
                if i == pos_col {
                    continue;
                }
                if let Some(v) = r.get(i) {
                    props.insert(f.name.clone(), value_to_json(v));
                }
            }
            Some(feature(&point_geometry(&Point::new(x, y)), &props))
        })
        .collect()
}

/// Writes a JSON document, pretty-printed.
pub fn write_json(path: impl AsRef<std::path::Path>, doc: &Json) -> std::io::Result<()> {
    std::fs::write(path, serde_json::to_string_pretty(doc)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula::prelude::{DataType, Schema};

    #[test]
    fn point_and_line_geometry() {
        let p = point_geometry(&Point::new(4.35, 50.85));
        assert_eq!(p["type"], "Point");
        assert_eq!(p["coordinates"][0], 4.35);
        let l = line_geometry(&[Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        assert_eq!(l["coordinates"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn circle_becomes_closed_polygon() {
        let g = zone_geometry(&Geometry::Circle {
            center: Point::new(4.35, 50.85),
            radius: 1_000.0,
        });
        assert_eq!(g["type"], "Polygon");
        let ring = g["coordinates"][0].as_array().unwrap();
        assert_eq!(ring.len(), 33, "closed 32-gon");
        assert_eq!(ring.first(), ring.last());
        // Radius ≈ 0.009° in latitude.
        let y0 = ring[8][1].as_f64().unwrap(); // top of circle
        assert!((y0 - 50.85 - 0.009).abs() < 0.001);
    }

    #[test]
    fn polygon_ring_closed() {
        let g = zone_geometry(&Geometry::Polygon(meos::geo::Polygon::rect(
            0.0, 0.0, 1.0, 1.0,
        )));
        let ring = g["coordinates"][0].as_array().unwrap();
        assert_eq!(ring.len(), 5);
        assert_eq!(ring[0], ring[4]);
    }

    #[test]
    fn records_to_features_maps_properties() {
        let schema = Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("pos", DataType::Point),
            ("alert", DataType::Text),
        ]);
        let records = vec![Record::new(vec![
            Value::Timestamp(1_000_000),
            Value::Int(3),
            Value::Point { x: 4.3, y: 50.8 },
            Value::text("speeding"),
        ])];
        let feats = records_to_features(&records, &schema, "pos");
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0]["properties"]["train_id"], 3);
        assert_eq!(feats[0]["properties"]["alert"], "speeding");
        assert!(feats[0]["properties"].get("pos").is_none());
        let fc = feature_collection(&feats);
        assert_eq!(fc["features"].as_array().unwrap().len(), 1);
    }
}
