//! The Version Data Model in action: build the paper's Figure 1.1 design
//! (ALU layouts, netlists, configurations, correspondences), derive new
//! versions with instance-to-instance inheritance, and watch the
//! run-time clusterer keep the physical layout tight.
//!
//! ```sh
//! cargo run --release --example versioned_checkout
//! ```

use semcluster_clustering::{
    plan_placement_in, plan_recluster_in, AllResident, ClusteringPolicy, PlacementTarget,
    ScoreScratch, WeightModel,
};
use semcluster_storage::{StorageManager, DEFAULT_PAGE_BYTES};
use semcluster_vdm::{
    derive_version, validate, AttrDef, CopyVsRefModel, Database, ObjectName, RelFrequencies,
    RelKind, TypeLattice,
};

fn main() {
    // ---- 1. Schema: a small type lattice with inheritable attributes.
    let mut lattice = TypeLattice::new();
    let design_obj = lattice
        .define(
            "design-object",
            vec![],
            vec![AttrDef::new("owner", 16)],
            vec![],
            RelFrequencies::UNIFORM,
        )
        .unwrap();
    let layout = lattice
        .define(
            "layout",
            vec![design_obj],
            vec![
                // Small, read-hot: the cost model will copy it.
                AttrDef {
                    name: "technology".into(),
                    size_bytes: 8,
                    read_weight: 3.0,
                    update_weight: 0.1,
                    inheritable: true,
                },
                // Larger, update-hot: kept by reference on the parent.
                AttrDef {
                    name: "design-rules".into(),
                    size_bytes: 512,
                    read_weight: 0.2,
                    update_weight: 6.0,
                    inheritable: true,
                },
            ],
            vec![],
            RelFrequencies {
                config_down: 6.0,
                version_up: 3.0,
                ..RelFrequencies::UNIFORM
            },
        )
        .unwrap();
    let netlist = lattice
        .define(
            "netlist",
            vec![design_obj],
            vec![],
            vec![],
            RelFrequencies::UNIFORM,
        )
        .unwrap();

    // ---- 2. Populate: ALU[2].layout composed of CARRY[1].layout,
    // corresponding to ALU[3].netlist (the paper's running example).
    let mut db = Database::with_lattice(lattice);
    let alu2 = db
        .create_object(ObjectName::new("ALU", 2, "layout"), layout, 600)
        .unwrap();
    let carry = db
        .create_object(ObjectName::new("CARRY-PROPAGATE", 1, "layout"), layout, 400)
        .unwrap();
    let alu3n = db
        .create_object(ObjectName::new("ALU", 3, "netlist"), netlist, 350)
        .unwrap();
    db.relate(RelKind::Configuration, alu2, carry).unwrap();
    db.relate(RelKind::Correspondence, alu2, alu3n).unwrap();

    // ---- 3. Physical placement through the clusterer.
    let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
    let model = WeightModel::no_hints();
    let mut scratch = ScoreScratch::new();
    for id in [alu2, carry, alu3n] {
        let size = db.get(id).unwrap().size_bytes();
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &model,
            id,
            size,
            &mut scratch,
        );
        match plan.target {
            PlacementTarget::Existing(p) => store.place(id, size, p).unwrap(),
            PlacementTarget::Append => {
                store.append(id, size).unwrap();
            }
        };
        scratch.put_examined(plan.examined);
    }
    println!(
        "ALU[2].layout and CARRY-PROPAGATE[1].layout co-resident: {}",
        store.co_resident(alu2, carry)
    );

    // ---- 4. Checkout-edit-checkin: derive ALU[3].layout.
    let derived = derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap();
    println!("\nderived {}:", db.name_of(derived.id).unwrap());
    println!(
        "  copied attributes     : {:?}",
        derived.names(&db, derived.copied)
    );
    println!(
        "  by-reference via link : {:?}",
        derived.names(&db, derived.referenced)
    );
    println!(
        "  inherited correspondences: {} (→ {})",
        derived.inherited_correspondences,
        db.name_of(alu3n).unwrap()
    );

    // ---- 5. Place the new version; the clusterer pulls it next to its
    // inheritance provider and correspondence partners.
    let size = db.get(derived.id).unwrap().size_bytes();
    let plan = plan_placement_in(
        &db,
        &store,
        &AllResident,
        ClusteringPolicy::NoLimit,
        &model,
        derived.id,
        size,
        &mut scratch,
    );
    let landed = match plan.target {
        PlacementTarget::Existing(p) => {
            store.place(derived.id, size, p).unwrap();
            p
        }
        PlacementTarget::Append => store.append(derived.id, size).unwrap(),
    };
    scratch.put_examined(plan.examined);
    println!(
        "\nALU[3].layout placed on {landed}, with its parent: {}",
        store.co_resident(derived.id, alu2)
    );

    // ---- 6. Structure change + run-time reclustering: CARRY moves out.
    let far = store.allocate_page();
    store.move_object(carry, far).unwrap();
    if let Some(plan) = plan_recluster_in(
        &db,
        &store,
        &AllResident,
        ClusteringPolicy::NoLimit,
        &model,
        carry,
        0.0,
        &mut scratch,
    ) {
        println!(
            "\nreclusterer proposes moving CARRY back to {} (gain {:.1})",
            plan.to, plan.gain
        );
        store.move_object(carry, plan.to).unwrap();
    }
    println!("co-resident again: {}", store.co_resident(alu2, carry));

    // ---- 7. The database still satisfies referential integrity.
    let violations = validate(&db);
    println!("\nintegrity violations: {}", violations.len());
    assert!(violations.is_empty());
}
