//! Multi-application host: one device, several programs, one middleware.
//!
//! The thesis' middleware is a shared neighbourhood layer used by every
//! application on a device. This example runs a fixed PC that hosts **two
//! independent services owned by two applications** — a messaging "print"
//! server and a picture-analysis server — on a single PeerHood stack, while
//! a phone (also hosting two client applications) talks to both.
//!
//! ```text
//! cargo run -p scenarios --example multi_app
//! ```

use migration::{MessagingClient, MessagingServer, PictureClient, PictureServer, TaskSpec};
use peerhood::node::PeerHoodNode;
use peerhood::prelude::*;
use scenarios::topology::experiment_config;
use simnet::prelude::*;

fn main() {
    let spec = TaskSpec::small();
    let mut world = World::new(WorldConfig::ideal(23));

    // The phone hosts two client applications on one middleware stack.
    let phone_cfg = experiment_config("phone", MobilityClass::Dynamic, DiscoveryMode::Dynamic);
    let phone_techs = phone_cfg.techs.clone();
    let mut phone_node = PeerHoodNode::builder()
        .config(phone_cfg)
        .app(MessagingClient::new(
            "print",
            b"hello from the phone".to_vec(),
            10,
            SimDuration::from_secs(1),
            SimDuration::from_secs(30),
        ))
        .app(PictureClient::new("analysis", spec.clone(), SimDuration::from_secs(35)))
        .build();
    phone_node.subscribe_event_trace();
    let phone = world.add_node(
        "phone",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &phone_techs,
        Box::new(OnWorld(phone_node)),
    );

    // The PC hosts two server applications with independent services.
    let pc_cfg = experiment_config("pc", MobilityClass::Static, DiscoveryMode::Dynamic);
    let pc_techs = pc_cfg.techs.clone();
    let pc = world.add_node(
        "pc",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &pc_techs,
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(pc_cfg)
                .app(MessagingServer::new("print"))
                .app(PictureServer::for_spec("analysis", &spec))
                .build(),
        )),
    );

    world.run_for(SimDuration::from_secs(240));

    world
        .with_agent::<PeerHoodNode, _>(pc, |node, _| {
            println!("pc hosts {} applications: {:?}", node.app_ids().len(), node.app_ids());
            let printed = node.with_app(|app: &MessagingServer| app.received_count()).unwrap();
            let packages = node.with_app(|app: &PictureServer| app.packages_received()).unwrap();
            println!("print service received   : {printed} message(s)");
            println!("analysis service received: {packages} package(s)");
        })
        .unwrap();
    world
        .with_agent::<PeerHoodNode, _>(phone, |node, _| {
            let sent = node.with_app(|app: &MessagingClient| app.sent).unwrap();
            let outcome = node.with_app(|app: &PictureClient| app.outcome()).unwrap();
            println!("phone messaging app sent : {sent} message(s)");
            println!("phone picture task       : {outcome:?}");
            // The typed event trace shows both applications' traffic without
            // downcasting: count Data deliveries per owning app.
            let trace = node.take_event_trace();
            for id in node.app_ids() {
                let events = trace.iter().filter(|e| e.app() == Some(id)).count();
                println!("events routed to {id}     : {events}");
            }
        })
        .unwrap();
}
